//! Metric definitions, the result line, `BENCHMARK.json`, and `check`.

use evanesco_ssd::jsonlite::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which clock a metric reads. Host metrics carry the sandbox's noise;
/// simulated metrics and counts repeat bit for bit, so for them any
/// difference between two runs of the same seed is a real change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
    Count,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    pub clock: Clock,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change is a regression (0 for per-layer metrics,
    /// which have no bound).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, clock, bound }
}

/// End-to-end metrics; every workload reports all of them.
///
/// The driver compares runs of *different* seeds, so a simulated metric's
/// bound has to cover its seed-to-seed spread (measured on three sets of
/// ten seeds per workload; each bound is at least three times the widest
/// spread seen).
/// Between two runs of one seed, `check` holds simulated metrics to bit
/// equality instead.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("host_pages_per_s", "pages/s", "higher", Clock::Host, 0.20),
    e2e("host_peak_rss_mib", "MiB", "lower", Clock::Host, 0.10),
    e2e("setup_s", "s", "lower", Clock::Host, 0.25),
    e2e("sim_iops", "pages/s", "higher", Clock::Sim, 0.15),
    e2e("sim_iops_vs_nosan", "ratio", "higher", Clock::Sim, 0.05),
    e2e("sim_waf", "ratio", "lower", Clock::Sim, 0.12),
    e2e("sim_lat_mean_us", "us", "lower", Clock::Sim, 0.15),
    e2e("sim_lat_worst1pct_us", "us", "lower", Clock::Sim, 0.18),
    e2e("sim_trim_body_mean_us", "us", "lower", Clock::Sim, 0.15),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    clock: Clock,
) -> MetricDef {
    MetricDef { name, unit, better, clock, bound: 0.0 }
}

use Clock::{Count, Host, Sim};

/// Per-layer metrics, one traced run prints all of them. See the README
/// for the end-to-end metric and workload each should move.
pub const PER_LAYER: [MetricDef; 77] = [
    // nand: direct timing of public functions
    layer("nand.gauss_ns_per_draw", "ns", "lower", Host),
    layer("nand.chip_program_ns", "ns", "lower", Host),
    layer("nand.chip_read_ns", "ns", "lower", Host),
    layer("nand.chip_erase_ns", "ns", "lower", Host),
    // core: EvanescoChip public ops, physical flags on unless named ideal
    layer("core.plock_ns", "ns", "lower", Host),
    layer("core.blocklock_ns", "ns", "lower", Host),
    layer("core.program_ns", "ns", "lower", Host),
    layer("core.read_ns", "ns", "lower", Host),
    layer("core.erase_flags_ns", "ns", "lower", Host),
    layer("core.plock_idealflags_ns", "ns", "lower", Host),
    layer("core.flags_wall_share", "ratio", "lower", Host),
    layer("core.lock_cmds", "count", "lower", Count),
    // ftl
    layer("ftl.self_ns_per_host_page", "ns", "lower", Host),
    layer("ftl.nand_ops_per_host_page", "ratio", "lower", Count),
    layer("ftl.gc_copied_per_host_write", "ratio", "lower", Count),
    layer("ftl.lock_cmds_per_host_write", "ratio", "lower", Count),
    layer("ftl.coalesced_plock_share", "ratio", "higher", Count),
    layer("ftl.policy.none.host_ns_per_page", "ns", "lower", Host),
    layer("ftl.policy.evanesco.host_ns_per_page", "ns", "lower", Host),
    layer("ftl.policy.evanesco_noblock.host_ns_per_page", "ns", "lower", Host),
    layer("ftl.policy.scrub.host_ns_per_page", "ns", "lower", Host),
    layer("ftl.policy.erase.host_ns_per_page", "ns", "lower", Host),
    layer("ftl.guard.cost_ratio", "ratio", "lower", Host),
    // ssd
    layer("ssd.exec.ns_per_nand_op", "ns", "lower", Host),
    layer("ssd.host_ns_per_nand_op", "ns", "lower", Host),
    layer("ssd.sched.ns_per_request_qd1", "ns", "lower", Host),
    layer("ssd.sched.ns_per_request_qd8", "ns", "lower", Host),
    layer("ssd.sched.ns_per_request_qd32", "ns", "lower", Host),
    layer("ssd.sched.depth_cost_ratio", "ratio", "lower", Host),
    layer("ssd.emulator.ns_per_request", "ns", "lower", Host),
    layer("ssd.emulator.serial_ns_per_request", "ns", "lower", Host),
    layer("ssd.emulator.serial_vs_qd1_sim_ratio", "ratio", "higher", Sim),
    layer("ssd.obs.tracing.cost_ratio", "ratio", "lower", Host),
    layer("ssd.obs.anatomy.cost_ratio", "ratio", "lower", Host),
    layer("ssd.obs.gauges.cost_ratio", "ratio", "lower", Host),
    layer("ssd.obs.timeseries.cost_ratio", "ratio", "lower", Host),
    layer("ssd.obs.watchdog.cost_ratio", "ratio", "lower", Host),
    layer("ssd.obs.decision_log.cost_ratio", "ratio", "lower", Host),
    layer("ssd.obs.dropped_records", "count", "lower", Count),
    layer("ssd.checkpoint.save_mib_per_s", "MiB/s", "higher", Host),
    layer("ssd.checkpoint.restore_mib_per_s", "MiB/s", "higher", Host),
    layer("ssd.checkpoint.bytes", "bytes", "lower", Count),
    // workloads
    layer("workloads.generate_ns_per_op.mailserver", "ns", "lower", Host),
    layer("workloads.generate_ns_per_op.dbserver", "ns", "lower", Host),
    layer("workloads.generate_ns_per_op.fileserver", "ns", "lower", Host),
    layer("workloads.generate_ns_per_op.mobile", "ns", "lower", Host),
    layer("workloads.tenants_generate_ns_per_op", "ns", "lower", Host),
    // fleet
    layer("fleet.wall_s_shards1", "s", "lower", Host),
    layer("fleet.shard_speedup_2", "ratio", "higher", Host),
    layer("fleet.generate_wall_share", "ratio", "lower", Host),
    layer("fleet.qos.admission_ns_per_request", "ns", "lower", Host),
    layer("fleet.anatomy.cost_ratio", "ratio", "lower", Host),
    layer("fleet.digest_shard_invariant", "count", "higher", Count),
    // the modelled SSD, from the ladder's flags-on step
    layer("sim.chip_util_mean", "ratio", "higher", Sim),
    layer("sim.channel_util_mean", "ratio", "higher", Sim),
    layer("sim.busy_share.read", "ratio", "lower", Sim),
    layer("sim.busy_share.program", "ratio", "lower", Sim),
    layer("sim.busy_share.erase", "ratio", "lower", Sim),
    layer("sim.busy_share.plock", "ratio", "lower", Sim),
    layer("sim.busy_share.block", "ratio", "lower", Sim),
    layer("sim.busy_share.scrub", "ratio", "lower", Sim),
    layer("sim.busy_share.xfer", "ratio", "lower", Sim),
    layer("sim.max_outstanding", "count", "higher", Count),
    layer("sim.lat_p999_us", "us", "lower", Sim),
    layer("sim.anatomy.dispatch_stall_share", "ratio", "lower", Sim),
    layer("sim.anatomy.sanitize_interference_share", "ratio", "lower", Sim),
    // the ladder itself: wall of each step, so any differential can be redone
    layer("ladder.l0_ftl_mem_ms", "ms", "lower", Host),
    layer("ladder.l1_ftl_timed_ms", "ms", "lower", Host),
    layer("ladder.l2_emulator_qd1_ms", "ms", "lower", Host),
    layer("ladder.l3_emulator_qd_ms", "ms", "lower", Host),
    layer("ladder.l4_flags_ms", "ms", "lower", Host),
    layer("ladder.requests", "count", "higher", Count),
    layer("ladder.results_digest_lo32", "count", "higher", Count),
    // correctness from outside, on the ladder's flags-on step
    layer("ops_failed_share", "ratio", "lower", Count),
    layer("sanitize_leak_pages", "pages", "lower", Count),
    // the tracer
    layer("trace.overhead_ratio", "ratio", "lower", Host),
    layer("trace.spans", "count", "lower", Count),
];

/// One line per workload: why it is in the set.
pub const WORKLOAD_WHY: [(&str, &str); 5] = [
    (
        "sanitize_churn",
        "hot-sweep secure overwrite mix, closed loop qd 8, physical flags on: pAP/bAP physics, the lock manager and coalescing do most of the work",
    ),
    (
        "read_deep",
        "90 % reads over a 75 % insecure fill, closed loop qd 32: scheduler, timed executor and L2P dominate; no lock is ever issued, so physics changes predict no change",
    ),
    (
        "table2_policies",
        "the paper's Figure 14 path: four Table-2 traces x four policies on the serialized request path, GC at 75 % utilization, the only paper reference (0.945)",
    ),
    (
        "observed_churn",
        "sanitize_churn's first requests with anatomy, gauges, timeseries, decision log and watchdog on: the pair isolates the cost of being observed",
    ),
    (
        "fleet_storm",
        "run_fleet, 4 devices on 2 shards, shaped QoS, open loop in simulated time below saturation: fleet runner, admission, tenant generator and the only threads",
    ),
];

/// Seconds of measurement per run.
pub const RUN_SECONDS: u64 = 12;

pub type Metrics = BTreeMap<&'static str, f64>;

/// A float with all its digits, as JSON (Rust's shortest round-trip form).
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v:?}")
}

/// The result line the driver reads: one JSON object, the last line of
/// standard output.
pub fn result_line(
    defs: &[MetricDef],
    metrics: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        let v = metrics.get(d.name).unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(s, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, num(*v), d.unit);
    }
    s.push_str("}}");
    assert_eq!(metrics.len(), defs.len(), "a metric outside the declared set was measured");
    s
}

/// `BENCHMARK.json`, generated so the declared metrics cannot drift from
/// the ones the code emits.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOAD_WHY.iter().enumerate() {
        let sep = if i + 1 < WORKLOAD_WHY.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name, d.unit, d.better, d.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name, d.unit, d.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses a results file: one result line per workload, each prefixed by
/// the workload's name and a tab (what `run` and `trace` write).
fn parse_results(text: &str) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
        let (name, json) = line.split_once('\t').ok_or("line without a workload name")?;
        let v = Json::parse(json)?;
        if v.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{name}: the run was not correct"));
        }
        let metrics = v.get("metrics").and_then(Json::as_obj).ok_or("no metrics object")?;
        let row = metrics
            .iter()
            .map(|(k, m)| {
                let value = m.get("value").and_then(Json::as_num).ok_or("metric without value")?;
                Ok((k.clone(), value))
            })
            .collect::<Result<_, String>>()?;
        out.insert(name.to_string(), row);
    }
    Ok(out)
}

/// The agreement test: two result files of the same seed must agree —
/// every simulated metric and count bit-equal, every bounded host metric
/// within its bound (either direction). Returns how many values were
/// compared and the offending pairs.
pub fn check(a: &str, b: &str) -> Result<(usize, Vec<String>), String> {
    let (a, b) = (parse_results(a)?, parse_results(b)?);
    let mut bad = Vec::new();
    let mut compared = 0;
    if a.keys().ne(b.keys()) {
        return Err("the two files cover different workloads".into());
    }
    for (workload, row_a) in &a {
        let row_b = &b[workload];
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let (Some(&x), Some(&y)) = (row_a.get(d.name), row_b.get(d.name)) else {
                if row_a.contains_key(d.name) != row_b.contains_key(d.name) {
                    bad.push(format!("{workload} {}: present in only one file", d.name));
                }
                continue;
            };
            compared += 1;
            match d.clock {
                Clock::Sim | Clock::Count if x.to_bits() != y.to_bits() => {
                    bad.push(format!("{workload} {}: {x:?} != {y:?} (must be bit-equal)", d.name));
                }
                Clock::Host if d.bound > 0.0 && (x - y).abs() > d.bound * x.abs().min(y.abs()) => {
                    bad.push(format!(
                        "{workload} {}: {x:?} vs {y:?} differ by more than {:.0} %",
                        d.name,
                        d.bound * 100.0
                    ));
                }
                _ => {}
            }
        }
    }
    if compared == 0 {
        return Err("nothing to compare".into());
    }
    Ok((compared, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(d.name, 64), "metric name {}", d.name);
            assert!(seen.insert(d.name), "metric {} listed twice", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {}",
                d.unit
            );
            assert!(d.better == "higher" || d.better == "lower");
            assert!((0.0..=0.25).contains(&d.bound));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (name, why) in WORKLOAD_WHY {
            assert!(name_ok(name, 64) && seen.insert(name), "workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}: {}", why.len());
        }
        assert_eq!(WORKLOAD_WHY.map(|(n, _)| n), crate::workloads::NAMES);
    }

    #[test]
    fn manifest_parses_and_has_exactly_the_contract_keys() {
        let text = manifest();
        assert!(text.len() < 64 * 1024);
        let v = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<_> = v.as_obj().expect("object").keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert_eq!(
            v.get("per_layer").and_then(Json::as_arr).map(<[Json]>::len),
            Some(PER_LAYER.len())
        );
        let e2e = v.get("end_to_end").and_then(Json::as_arr).expect("array");
        for m in e2e {
            let keys: Vec<_> = m.as_obj().expect("object").keys().map(String::as_str).collect();
            assert_eq!(keys, ["better", "bound", "name", "unit"]);
        }
        assert_eq!(v.get("run_seconds").and_then(Json::as_u64), Some(RUN_SECONDS));
    }

    fn line(host: f64, sim: f64) -> String {
        let m = Metrics::from([("host_pages_per_s", host), ("sim_iops", sim)]);
        let defs = [END_TO_END[0], END_TO_END[3]];
        format!("read_deep\t{}\n", result_line(&defs, &m, true, 10, 0))
    }

    #[test]
    fn result_line_parses_and_keeps_every_digit() {
        let text = line(1234567.890123, 0.1 + 0.2);
        let rows = parse_results(&text).expect("parses");
        assert_eq!(rows["read_deep"]["sim_iops"].to_bits(), (0.1f64 + 0.2).to_bits());
        let v = Json::parse(text.split_once('\t').expect("tab").1).expect("json");
        let keys: Vec<_> = v.as_obj().expect("object").keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    }

    #[test]
    fn check_holds_sim_to_bit_equality_and_host_to_its_bound() {
        assert_eq!(check(&line(100.0, 5.0), &line(105.0, 5.0)), Ok((2, vec![])));
        let (_, bad) = check(&line(100.0, 5.0), &line(100.0, 5.000000000000001)).expect("ok");
        assert!(bad.len() == 1 && bad[0].contains("sim_iops"), "{bad:?}");
        let (_, bad) = check(&line(100.0, 5.0), &line(130.0, 5.0)).expect("ok");
        assert!(bad.len() == 1 && bad[0].contains("host_pages_per_s"), "{bad:?}");
        assert!(check(&line(1.0, 1.0), "").is_err(), "different workload sets");
        let incorrect = line(1.0, 1.0).replace("true", "false");
        assert!(check(&incorrect, &incorrect).is_err());
    }
}
