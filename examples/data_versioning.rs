//! A miniature of the paper's §3 data-versioning study: run the DBServer
//! workload on a conventional SSD, watch stale versions accumulate, then
//! run the same trace on SecureSSD and watch them disappear.
//!
//! ```text
//! cargo run --release --example data_versioning
//! ```

use evanesco::ftl::SanitizePolicy;
use evanesco::ssd::{Emulator, SsdConfig};
use evanesco::workloads::generate::generate;
use evanesco::workloads::replay::replay_with;
use evanesco::workloads::vertrace::VerTrace;
use evanesco::workloads::WorkloadSpec;

fn run(policy: SanitizePolicy) -> (String, evanesco::workloads::VerTraceReport) {
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), policy);
    let logical = ssd.logical_pages();
    let trace = generate(&WorkloadSpec::db_server(), logical, 2 * logical, 42);
    let mut vt = VerTrace::new(&ssd.config().ftl);
    replay_with(&mut ssd, &trace, &mut vt);
    (policy.to_string(), vt.report(logical))
}

fn main() {
    println!("DBServer workload, 2x capacity written, per-file version stats:\n");
    for policy in [SanitizePolicy::none(), SanitizePolicy::evanesco()] {
        let (name, report) = run(policy);
        println!("[{name}]");
        println!(
            "  UV files: n={:4}  VAF avg {:.3} max {:.2}   T_insecure avg {:.3} max {:.2}",
            report.uv.n_files,
            report.uv.vaf_avg,
            report.uv.vaf_max,
            report.uv.tinsec_avg,
            report.uv.tinsec_max
        );
        println!(
            "  MV files: n={:4}  VAF avg {:.3} max {:.2}   T_insecure avg {:.3} max {:.2}\n",
            report.mv.n_files,
            report.mv.vaf_avg,
            report.mv.vaf_max,
            report.mv.tinsec_avg,
            report.mv.tinsec_max
        );
    }
    println!(
        "the baseline SSD accumulates stale versions of heavily-updated (MV) files;\n\
         SecureSSD locks every stale version at invalidation, so VAF collapses to 0."
    );
}
