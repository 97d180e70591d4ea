//! Data-versioning experiments (paper §3): Table 1 and Figure 4.
//!
//! These run the *baseline* (sanitization-free) FTL — the point of §3 is to
//! measure how much stale data a conventional SSD accumulates.

use crate::scale::Scale;
use evanesco_ftl::SanitizePolicy;
use evanesco_ssd::Emulator;
use evanesco_workloads::generate::generate;
use evanesco_workloads::replay::replay_with;
use evanesco_workloads::vertrace::{VerTrace, VerTraceReport};
use evanesco_workloads::WorkloadSpec;
use std::fmt::Write;

/// Runs one workload on the baseline SSD with VerTrace attached (Table 1,
/// Figure 4 and the `report` attribution rows all start here).
pub(crate) fn run_vertrace(scale: &Scale, spec: &WorkloadSpec, timelines: bool) -> (VerTrace, u64) {
    let mut ssd = Emulator::new(scale.ssd_config(), SanitizePolicy::none());
    let logical = ssd.logical_pages();
    let trace = generate(spec, logical, scale.main_write_pages(logical), scale.seed);
    let ftl = &ssd.config().ftl;
    let mut vt = if timelines { VerTrace::with_timelines(ftl) } else { VerTrace::new(ftl) };
    replay_with(&mut ssd, &trace, &mut vt);
    (vt, logical)
}

/// Table 1: VAF and T_insecure for UV and MV files on Mobile, MailServer
/// and DBServer.
pub fn table1(scale: &Scale) -> String {
    let mut out = String::new();
    writeln!(out, "== Table 1: data versioning evaluations (baseline SSD) ==").unwrap();
    writeln!(
        out,
        "{:<12} | {:>8} {:>8} {:>9} {:>9} | {:>8} {:>8} {:>9} {:>9}",
        "", "UV", "UV", "UV", "UV", "MV", "MV", "MV", "MV"
    )
    .unwrap();
    writeln!(
        out,
        "{:<12} | {:>8} {:>8} {:>9} {:>9} | {:>8} {:>8} {:>9} {:>9}",
        "Workload",
        "VAF avg",
        "VAF max",
        "Tins avg",
        "Tins max",
        "VAF avg",
        "VAF max",
        "Tins avg",
        "Tins max"
    )
    .unwrap();
    for spec in [WorkloadSpec::mobile(), WorkloadSpec::mail_server(), WorkloadSpec::db_server()] {
        let (mut vt, logical) = run_vertrace(scale, &spec, false);
        let r: VerTraceReport = vt.report(logical);
        writeln!(
            out,
            "{:<12} | {:>8.3} {:>8.2} {:>9.3} {:>9.2} | {:>8.3} {:>8.2} {:>9.3} {:>9.2}",
            spec.name,
            r.uv.vaf_avg,
            r.uv.vaf_max,
            r.uv.tinsec_avg,
            r.uv.tinsec_max,
            r.mv.vaf_avg,
            r.mv.vaf_max,
            r.mv.tinsec_avg,
            r.mv.tinsec_max
        )
        .unwrap();
    }
    writeln!(
        out,
        "\npaper shape: MV files in DBServer have the largest VAF; even UV files\n\
         accumulate invalid versions (GC copies) and stay insecure for a long time."
    )
    .unwrap();
    out
}

/// Figure 4: `N_valid`/`N_invalid` timeplots for the worst UV file in
/// Mobile and the worst MV file in DBServer.
pub fn fig4(scale: &Scale) -> String {
    let mut out = String::new();
    writeln!(out, "== Figure 4: data versioning under different write patterns ==").unwrap();
    let cases = [
        ("(a) worst UV file in Mobile", WorkloadSpec::mobile(), false),
        ("(b) worst MV file in DBServer", WorkloadSpec::db_server(), true),
    ];
    for (label, spec, mv) in cases {
        let (mut vt, _) = run_vertrace(scale, &spec, true);
        vt.finalize();
        writeln!(out, "\n[{label}]").unwrap();
        let Some((id, stats)) = vt.worst_file(mv) else {
            writeln!(out, "  (no {} files produced)", if mv { "MV" } else { "UV" }).unwrap();
            continue;
        };
        writeln!(
            out,
            "  file {id}: max_valid {}  max_invalid {}  VAF {:.2}",
            stats.versions.max_valid,
            stats.versions.max_invalid,
            stats.versions.vaf()
        )
        .unwrap();
        writeln!(out, "  {:>12} {:>10} {:>10}", "tick", "N_valid", "N_invalid").unwrap();
        // Downsample the timeline to at most 20 rows.
        let tl = &stats.timeline;
        let step = (tl.len() / 20).max(1);
        for (i, (t, v, inv)) in tl.iter().enumerate() {
            if i % step == 0 || i == tl.len() - 1 {
                writeln!(out, "  {:>12} {:>10} {:>10}", t, v, inv).unwrap();
            }
        }
    }
    writeln!(
        out,
        "\npaper shape: the UV file shows invalid spikes from GC copies; the MV file's\n\
         invalid count grows with updates and drains only slowly after GC starts."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_rows_and_nonzero_mv_vaf() {
        let s = table1(&Scale::smoke());
        assert!(s.contains("Mobile"));
        assert!(s.contains("DBServer"));
        // DBServer MV VAF should be materially nonzero.
        let db = s.lines().find(|l| l.starts_with("DBServer")).unwrap();
        // "DBServer | uvavg uvmax uvtins uvtinsmax | mvavg mvmax ..."
        let cols: Vec<&str> = db.split_whitespace().collect();
        let mv_avg: f64 = cols[7].parse().unwrap();
        assert!(mv_avg > 0.0, "DBServer MV VAF avg: {db}");
    }

    #[test]
    fn fig4_prints_timeplots() {
        let s = fig4(&Scale::smoke());
        assert!(s.contains("N_valid"));
        assert!(s.contains("worst MV file in DBServer"));
    }
}
