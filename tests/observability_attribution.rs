//! Integration tests for the PR-5 observability stack: VerTrace must
//! reproduce the paper's Table-1 orderings and attribute retirements to
//! the right invalidation path — and none of it may perturb the
//! simulation (telemetry-enabled and telemetry-disabled runs are
//! identical).

use evanesco::ftl::{DecisionLevel, SanitizePolicy};
use evanesco::nand::timing::Nanos;
use evanesco::ssd::Emulator;
use evanesco::workloads::generate::generate;
use evanesco::workloads::replay::{replay, replay_with};
use evanesco::workloads::{Trace, VerTrace, VerTraceReport, WorkloadSpec};
use evanesco_bench::Scale;

/// One run of `spec` under `policy` with VerTrace attached.
fn run(spec: &WorkloadSpec, seed: u64, policy: SanitizePolicy) -> VerTraceReport {
    let mut cfg = Scale::smoke().ssd_config();
    cfg.track_tags = false;
    let mut ssd = Emulator::new(cfg, policy);
    let logical = ssd.logical_pages();
    let trace = generate(spec, logical, logical, seed);
    let mut vt = VerTrace::new();
    replay_with(&mut ssd, &trace, &mut vt);
    vt.report(logical)
}

#[test]
fn ledger_reproduces_table1_orderings() {
    let reports: Vec<_> =
        [WorkloadSpec::mobile(), WorkloadSpec::mail_server(), WorkloadSpec::db_server()]
            .iter()
            .map(|spec| (spec.name.to_string(), run(spec, 7, SanitizePolicy::none())))
            .collect();

    // MV files accumulate at least as many stale versions as UV files.
    for (name, r) in &reports {
        if r.uv.n_files > 0 && r.mv.n_files > 0 {
            assert!(
                r.mv.vaf_avg >= r.uv.vaf_avg,
                "{name}: MV VAF {} < UV VAF {}",
                r.mv.vaf_avg,
                r.uv.vaf_avg
            );
        }
    }
    // DBServer's overwrite-heavy pattern yields the largest MV VAF.
    let db = &reports.iter().find(|(n, _)| n == "DBServer").unwrap().1;
    assert!(db.mv.vaf_avg > 0.0, "DBServer produced no stale MV versions");
    for (name, r) in &reports {
        assert!(
            db.mv.vaf_avg >= r.mv.vaf_avg,
            "{name} MV VAF {} exceeds DBServer's {}",
            r.mv.vaf_avg,
            db.mv.vaf_avg
        );
    }
}

#[test]
fn retirement_paths_split_by_policy() {
    // Baseline SSD: stale secured versions stay exposed, retired by host
    // updates, trims, and GC copies alike.
    let base = run(&WorkloadSpec::db_server(), 11, SanitizePolicy::none());
    let exposed: u64 = base.device_causes.exposed.iter().sum();
    assert!(exposed > 0, "baseline SSD must leave exposed retirements");
    assert!(
        base.device_causes.total[0] > 0 && base.device_causes.total[1] > 0,
        "expected host-update and trim retirements: {:?}",
        base.device_causes.total
    );
    // The exposure histogram saw real nonzero windows.
    let exp = {
        let mut e = base.uv.exposure;
        e.absorb(&base.mv.exposure);
        e
    };
    assert!(exp.count > 0 && exp.max > 0, "no exposure windows measured");

    // Evanesco SSD: every secured retirement sanitizes on the spot, so
    // nothing is ever exposed and every window is zero ticks.
    let sec = run(&WorkloadSpec::db_server(), 11, SanitizePolicy::evanesco());
    assert_eq!(sec.device_causes.exposed, [0, 0, 0], "Evanesco left exposed retirements");
    let secured: u64 = sec.device_causes.secured.iter().sum();
    assert!(secured > 0, "no secured retirements observed");
    let exp = {
        let mut e = sec.uv.exposure;
        e.absorb(&sec.mv.exposure);
        e
    };
    assert!(exp.count > 0);
    assert_eq!(exp.zero_fraction(), 1.0, "Evanesco windows must all be zero ticks");
    assert_eq!((sec.uv.vaf_max, sec.mv.vaf_max), (0.0, 0.0), "secSSD must leave no versions");
}

/// Replays `trace` with every telemetry layer either armed or off and
/// returns the final whole-run result.
fn telemetry_run(trace: &Trace, enable: bool) -> evanesco::ssd::RunResult {
    let mut cfg = Scale::smoke().ssd_config();
    cfg.track_tags = false;
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    if enable {
        ssd.enable_gauges();
        ssd.enable_tracing(256);
        ssd.enable_timeseries(Nanos::from_micros(100), 256);
        ssd.enable_decision_log(2048, DecisionLevel::Info);
        replay_with(&mut ssd, trace, &mut VerTrace::new());
        ssd.sample_timeseries_now();
        // The layers actually observed the run.
        assert!(ssd.timeseries().unwrap().total() > 0);
        assert!(!ssd.decision_log().is_empty());
    } else {
        replay(&mut ssd, trace);
    }
    ssd.result()
}

#[test]
fn full_telemetry_stack_is_timing_neutral() {
    let cfg = Scale::smoke().ssd_config();
    let logical = cfg.ftl.logical_pages();
    let trace = generate(&WorkloadSpec::db_server(), logical, logical, 13);
    let on = telemetry_run(&trace, true);
    let off = telemetry_run(&trace, false);
    // Identical down to every counter, latency bucket, and the simulated
    // clock: observation must not perturb the simulation.
    assert_eq!(on, off);
}
