//! The consolidated observability report (`BENCH_report.json`).
//!
//! One `experiments report` run exercises the whole PR-5 telemetry stack
//! and renders it as a regression-gated report:
//!
//! * **scheduler** — the out-of-order throughput gate numbers (same
//!   machinery as the `scheduler` subcommand);
//! * **attribution** — for Mobile, MailServer and DBServer on the
//!   baseline SSD, VerTrace's Table-1 numbers from the same replay Table 1
//!   runs (`versioning::run_vertrace`), plus retirement-path counters and
//!   the exposure-window histogram summary;
//! * **timeseries + decisions** — a telemetry-enabled DBServer run on the
//!   Evanesco SSD: windowed samples, peak invalid-secured gauge, and the
//!   FTL decision-log level counts;
//! * **timing neutrality** — the same run with every telemetry layer off
//!   must produce an identical [`evanesco_ssd::RunResult`].
//!
//! The `report` subcommand of the `experiments` binary writes
//! `BENCH_report.json`, checks the bundle's own invariants (neutrality,
//! the paper's Table-1 orderings, the scheduler gate) and, when a checked-in
//! `BENCH_report.json` baseline exists at the same scale, gates numeric
//! drift against it with per-field tolerances. Any violation exits 1.

use crate::experiments::{scheduler, versioning};
use crate::scale::Scale;
use evanesco_ftl::{DecisionLevel, SanitizePolicy};
use evanesco_nand::timing::Nanos;
use evanesco_ssd::jsonlite::{DriftRule, Obj};
use evanesco_ssd::Emulator;
use evanesco_workloads::generate::generate;
use evanesco_workloads::replay::replay;
use evanesco_workloads::WorkloadSpec;
use evanesco_workloads::{CauseCounts, ClassStats, ExposureHistogram};
use std::fmt::Write as _;

/// What `BENCH_report.json` may drift by against a checked-in baseline
/// of the same scale (`jsonlite::drift`).
pub const DRIFT_RULES: [DriftRule; 7] = [
    DriftRule { path: "scheduler.speedup", tol: 0.15, floor: 0.05 },
    DriftRule { path: "scheduler.iops", tol: 0.15, floor: 1.0 },
    DriftRule { path: "timeseries.windows", tol: 0.25, floor: 2.0 },
    DriftRule { path: "timeseries.peak_invalid_secured", tol: 0.25, floor: 4.0 },
    DriftRule { path: "attribution.*.live.mv_vaf_avg", tol: 0.05, floor: 0.05 },
    DriftRule { path: "attribution.*.live.mv_tinsec_avg", tol: 0.05, floor: 0.05 },
    DriftRule { path: "attribution.*.live.uv_vaf_avg", tol: 0.05, floor: 0.05 },
];

/// Attribution for one workload: VerTrace's report on the baseline SSD.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadAttribution {
    /// Workload name (Table-2 spelling).
    pub workload: String,
    /// Uni-version files.
    pub uv: ClassStats,
    /// Multi-version files.
    pub mv: ClassStats,
    /// Device-wide retirement paths (the report shows the secured and
    /// exposed counts).
    pub causes: CauseCounts,
    /// Exposure windows of both classes.
    pub exposure: ExposureHistogram,
}

/// The telemetry-enabled run's windowed-sample summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeseriesSection {
    /// Windows closed over the run (retained + dropped).
    pub windows: u64,
    /// Windows still in the ring.
    pub retained: u64,
    /// Mean windowed IOPS across retained samples.
    pub mean_window_iops: f64,
    /// Peak `invalid_secured` gauge across retained samples.
    pub peak_invalid_secured: u64,
    /// T_insecure at the final sample.
    pub final_t_insecure: f64,
}

/// The decision log's level counts from the telemetry-enabled run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionSection {
    /// Info-level records.
    pub info: u64,
    /// Warn-level records.
    pub warn: u64,
    /// Error-level records.
    pub error: u64,
    /// Records evicted from the ring.
    pub dropped: u64,
}

/// Everything `BENCH_report.json` serializes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportBundle {
    /// Scale preset name (provenance; drift gating is same-scale only).
    pub scale_name: String,
    /// Scheduler-gate queue-depth speedup over serialized.
    pub scheduler_speedup: f64,
    /// IOPS at the gate queue depth.
    pub scheduler_iops: f64,
    /// Whether the scheduler gate passes.
    pub scheduler_pass: bool,
    /// One row per workload.
    pub attribution: Vec<WorkloadAttribution>,
    /// Table-1 ordering: every workload with both classes has MV VAF
    /// (avg) at or above UV.
    pub mv_vaf_exceeds_uv: bool,
    /// Table-1 ordering: DBServer has the largest MV VAF (avg).
    pub dbserver_mv_vaf_largest: bool,
    /// Windowed telemetry summary.
    pub timeseries: TimeseriesSection,
    /// Decision-log summary.
    pub decisions: DecisionSection,
    /// Telemetry-on and telemetry-off runs produced identical simulated
    /// results.
    pub timing_neutral: bool,
}

/// One baseline-SSD workload, replayed exactly as Table 1 replays it.
fn run_attribution(scale: &Scale, spec: &WorkloadSpec) -> WorkloadAttribution {
    let (mut vt, logical) = versioning::run_vertrace(scale, spec, false);
    let r = vt.report(logical);
    let mut exposure = r.uv.exposure;
    exposure.absorb(&r.mv.exposure);
    WorkloadAttribution {
        workload: spec.name.to_string(),
        uv: r.uv,
        mv: r.mv,
        causes: r.device_causes,
        exposure,
    }
}

/// Runs every section and assembles the bundle.
pub fn run(scale: &Scale, scale_name: &str) -> ReportBundle {
    let sched = scheduler::run(scale, scale_name);
    let sched_iops =
        sched.points.iter().find(|p| p.qd == scheduler::GATE_QD).map_or(0.0, |p| p.iops);

    let attribution: Vec<WorkloadAttribution> =
        [WorkloadSpec::mobile(), WorkloadSpec::mail_server(), WorkloadSpec::db_server()]
            .iter()
            .map(|spec| run_attribution(scale, spec))
            .collect();
    let mv_vaf_exceeds_uv = attribution
        .iter()
        .filter(|a| a.uv.n_files > 0 && a.mv.n_files > 0)
        .all(|a| a.mv.vaf_avg >= a.uv.vaf_avg);
    let db = attribution.iter().find(|a| a.workload == "DBServer");
    let dbserver_mv_vaf_largest = db.is_some_and(|db| {
        attribution.iter().all(|a| db.mv.vaf_avg >= a.mv.vaf_avg) && db.mv.vaf_avg > 0.0
    });

    // Telemetry-enabled DBServer run on the Evanesco SSD, and the same
    // run with everything off for the neutrality check.
    let telemetry_run = |enable: bool| {
        let mut cfg = scale.ssd_config();
        cfg.track_tags = false;
        let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
        if enable {
            ssd.enable_gauges();
            ssd.enable_timeseries(Nanos::from_micros(250), 512);
            ssd.enable_decision_log(4096, DecisionLevel::Info);
        }
        let logical = ssd.logical_pages();
        let trace = generate(
            &WorkloadSpec::db_server(),
            logical,
            scale.main_write_pages(logical),
            scale.seed,
        );
        replay(&mut ssd, &trace);
        ssd.sample_timeseries_now();
        ssd
    };
    let on = telemetry_run(true);
    let off = telemetry_run(false);
    let timing_neutral = on.result() == off.result();

    let ts = on.timeseries().expect("timeseries enabled");
    let samples: Vec<_> = ts.samples().collect();
    let timeseries = TimeseriesSection {
        windows: ts.total(),
        retained: samples.len() as u64,
        mean_window_iops: if samples.is_empty() {
            0.0
        } else {
            samples.iter().map(|s| s.delta.iops).sum::<f64>() / samples.len() as f64
        },
        peak_invalid_secured: samples
            .iter()
            .filter_map(|s| s.gauges.map(|g| g.invalid_secured))
            .max()
            .unwrap_or(0),
        final_t_insecure: samples.last().map_or(0.0, |s| s.t_insecure),
    };
    let dl = on.decision_log();
    let decisions = DecisionSection {
        info: dl.counts[0],
        warn: dl.counts[1],
        error: dl.counts[2],
        dropped: dl.dropped,
    };

    ReportBundle {
        scale_name: scale_name.to_string(),
        scheduler_speedup: sched.gate_speedup(),
        scheduler_iops: sched_iops,
        scheduler_pass: sched.violations().is_empty(),
        attribution,
        mv_vaf_exceeds_uv,
        dbserver_mv_vaf_largest,
        timeseries,
        decisions,
        timing_neutral,
    }
}

impl ReportBundle {
    /// The bundle's own invariants — violations independent of any
    /// baseline ([`DRIFT_RULES`] gate against one). Empty means healthy.
    pub fn violations(&self) -> Vec<String> {
        let mut v = self.doc().non_finite();
        if !self.timing_neutral {
            v.push("telemetry is not timing-neutral: enabled run diverged".into());
        }
        if !self.scheduler_pass {
            v.push(format!(
                "scheduler gate failed: qd {} speedup {:.2}x < {:.1}x",
                scheduler::GATE_QD,
                self.scheduler_speedup,
                scheduler::GATE_MIN_SPEEDUP
            ));
        }
        if !self.mv_vaf_exceeds_uv {
            v.push("Table-1 ordering broken: a workload has MV VAF below UV VAF".into());
        }
        if !self.dbserver_mv_vaf_largest {
            v.push("Table-1 ordering broken: DBServer MV VAF is not the largest".into());
        }
        if self.timeseries.windows == 0 {
            v.push("timeseries produced no windows".into());
        }
        if self.decisions.info + self.decisions.warn + self.decisions.error == 0 {
            v.push("decision log recorded nothing".into());
        }
        v
    }

    /// Human-readable markdown report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "== Observability report (scale {}) ==", self.scale_name).unwrap();
        writeln!(
            out,
            "\nscheduler: qd {} speedup {:.2}x, {:.0} iops -> {}",
            scheduler::GATE_QD,
            self.scheduler_speedup,
            self.scheduler_iops,
            if self.scheduler_pass { "PASS" } else { "FAIL" },
        )
        .unwrap();
        writeln!(out, "\nattribution (VerTrace, baseline SSD):").unwrap();
        writeln!(out, "{:<12} {:>5} | {:>9} {:>9}", "workload", "class", "vaf_avg", "tins_avg")
            .unwrap();
        for a in &self.attribution {
            for (class, c) in [("UV", &a.uv), ("MV", &a.mv)] {
                writeln!(
                    out,
                    "{:<12} {:>5} | {:>9.3} {:>9.3}",
                    a.workload, class, c.vaf_avg, c.tinsec_avg,
                )
                .unwrap();
            }
            writeln!(
                out,
                "{:<12} paths: secured {:?} exposed {:?}; exposure mean {:.1} ticks, \
                 zero {:.0}%, max {}",
                "",
                a.causes.secured,
                a.causes.exposed,
                a.exposure.mean(),
                a.exposure.zero_fraction() * 100.0,
                a.exposure.max,
            )
            .unwrap();
        }
        writeln!(
            out,
            "orderings: MV >= UV {}; DBServer MV largest {}",
            self.mv_vaf_exceeds_uv, self.dbserver_mv_vaf_largest
        )
        .unwrap();
        writeln!(
            out,
            "\ntimeseries (Evanesco SSD, DBServer): {} windows ({} retained), \
             mean {:.0} iops/window, peak invalid_secured {}, final T_insecure {:.4}",
            self.timeseries.windows,
            self.timeseries.retained,
            self.timeseries.mean_window_iops,
            self.timeseries.peak_invalid_secured,
            self.timeseries.final_t_insecure,
        )
        .unwrap();
        writeln!(
            out,
            "decision log: {} info / {} warn / {} error ({} dropped)",
            self.decisions.info, self.decisions.warn, self.decisions.error, self.decisions.dropped,
        )
        .unwrap();
        writeln!(out, "timing-neutral: {}", self.timing_neutral).unwrap();
        out
    }

    fn doc(&self) -> Obj {
        let class = |c: &ClassStats| {
            Obj::new()
                .field("n_files", c.n_files)
                .field("vaf_avg", c.vaf_avg)
                .field("vaf_max", c.vaf_max)
                .field("tinsec_avg", c.tinsec_avg)
                .field("tinsec_max", c.tinsec_max)
        };
        let attribution = self.attribution.iter().map(|a| {
            let live = Obj::new()
                .field("uv", class(&a.uv))
                .field("mv", class(&a.mv))
                .field("uv_vaf_avg", a.uv.vaf_avg)
                .field("mv_vaf_avg", a.mv.vaf_avg)
                .field("mv_tinsec_avg", a.mv.tinsec_avg);
            let causes =
                Obj::new().array("secured", a.causes.secured).array("exposed", a.causes.exposed);
            let exposure = Obj::new()
                .field("mean_ticks", a.exposure.mean())
                .field("zero_fraction", a.exposure.zero_fraction())
                .field("max_ticks", a.exposure.max);
            Obj::new()
                .field("workload", &a.workload)
                .field("live", live)
                .field("causes", causes)
                .field("exposure", exposure)
        });
        let scheduler = Obj::new()
            .field("gate_qd", scheduler::GATE_QD)
            .field("speedup", self.scheduler_speedup)
            .field("iops", self.scheduler_iops)
            .field("pass", self.scheduler_pass);
        let orderings = Obj::new()
            .field("mv_vaf_exceeds_uv", self.mv_vaf_exceeds_uv)
            .field("dbserver_mv_vaf_largest", self.dbserver_mv_vaf_largest);
        let timeseries = Obj::new()
            .field("windows", self.timeseries.windows)
            .field("retained", self.timeseries.retained)
            .field("mean_window_iops", self.timeseries.mean_window_iops)
            .field("peak_invalid_secured", self.timeseries.peak_invalid_secured)
            .field("final_t_insecure", self.timeseries.final_t_insecure);
        let decisions = Obj::new()
            .field("info", self.decisions.info)
            .field("warn", self.decisions.warn)
            .field("error", self.decisions.error)
            .field("dropped", self.decisions.dropped);
        Obj::new()
            .field("bench", "report")
            .field("scale", &self.scale_name)
            .field("scheduler", scheduler)
            .array("attribution", attribution)
            .field("orderings", orderings)
            .field("timeseries", timeseries)
            .field("decisions", decisions)
            .field("timing_neutral", self.timing_neutral)
    }

    /// Machine-readable JSON (`BENCH_report.json`).
    pub fn to_json(&self) -> String {
        self.doc().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evanesco_ssd::jsonlite::drift;

    #[test]
    fn smoke_bundle_is_healthy() {
        let b = run(&Scale::smoke(), "smoke");
        assert!(b.timing_neutral, "telemetry changed simulated results");
        assert!(b.mv_vaf_exceeds_uv && b.dbserver_mv_vaf_largest, "Table-1 orderings broken");
        assert!(b.timeseries.windows > 0);
        assert!(b.decisions.info + b.decisions.warn + b.decisions.error > 0);
        assert!(b.violations().is_empty(), "{:?}", b.violations());
    }

    #[test]
    fn drift_gate_catches_a_moved_number() {
        let b = run(&Scale::smoke(), "smoke");
        let baseline = b.to_json();
        assert_eq!(drift(&baseline, &baseline, &DRIFT_RULES), Vec::<String>::new());
        let mut doctored = b.clone();
        doctored.scheduler_speedup *= 2.0;
        let violations = drift(&baseline, &doctored.to_json(), &DRIFT_RULES);
        assert!(violations.iter().any(|v| v.contains("scheduler.speedup")), "{violations:?}");
    }
}
