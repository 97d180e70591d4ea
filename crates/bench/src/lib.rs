//! # evanesco-bench
//!
//! The benchmark/experiment harness of the Evanesco (ASPLOS 2020)
//! reproduction. For **every table and figure** in the paper's evaluation
//! there is a generator here that re-runs the experiment and prints the
//! same rows/series (see `DESIGN.md` for the experiment index):
//!
//! | artifact | function |
//! |---|---|
//! | Table 1  | [`experiments::versioning::table1`] |
//! | Table 2  | [`experiments::background::table2`] |
//! | Figure 2 | [`experiments::background::fig2`] |
//! | Figure 4 | [`experiments::versioning::fig4`] |
//! | Figure 6 | [`experiments::reliability::fig6`] |
//! | Figure 9 | [`experiments::dse::fig9`] |
//! | Figure 10 | [`experiments::reliability::fig10`] |
//! | Figure 11(b) | [`experiments::reliability::fig11`] |
//! | Figure 12 | [`experiments::dse::fig12`] |
//! | Figure 14(a) | [`experiments::system::fig14a`] |
//! | Figure 14(b) | [`experiments::system::fig14b`] |
//! | Figure 14(c) | [`experiments::system::fig14c`] |
//! | §7 headline numbers | [`experiments::system::headline`] |
//! | §5.5 overhead | [`experiments::background::overhead`] |
//!
//! Run everything with `cargo run --release -p evanesco-bench --bin
//! experiments -- all`. Host wall-clock is measured by the repo benchmark
//! (`BENCHMARK.json`, `benchmark/`), not here.

pub mod experiments;
pub mod scale;

pub use scale::Scale;

/// Runs one named experiment and returns its text output.
///
/// # Panics
///
/// Panics on an unknown experiment name; see [`EXPERIMENT_NAMES`].
pub fn run_experiment(name: &str, scale: &Scale) -> String {
    match name {
        "table1" => experiments::versioning::table1(scale),
        "table2" => experiments::background::table2(scale),
        "fig2" => experiments::background::fig2(),
        "fig4" => experiments::versioning::fig4(scale),
        "fig6" => experiments::reliability::fig6(scale),
        "fig9" => experiments::dse::fig9(),
        "fig10" => experiments::reliability::fig10(),
        "fig11" => experiments::reliability::fig11(),
        "fig12" => experiments::dse::fig12(),
        "fig14a" => experiments::system::fig14a(scale),
        "fig14b" => experiments::system::fig14b(scale),
        "fig14c" => experiments::system::fig14c(scale),
        "headline" => experiments::system::headline(scale),
        "overhead" => experiments::background::overhead(),
        "ablation-k" => experiments::ablation::ablation_k(),
        "ablation-blocktrig" => experiments::ablation::ablation_blocktrig(scale),
        "ablation-gc" => experiments::ablation::ablation_gc(scale),
        "security-flagaging" => experiments::security::security_flagaging(),
        "breakdown" => experiments::breakdown::breakdown(scale),
        "delete-latency" => experiments::latency::delete_latency(),
        "ablation-lazy" => experiments::ablation::ablation_lazy(scale),
        "scheduler" => experiments::scheduler::scheduler(scale, "custom"),
        "trace" => experiments::tracing::trace(scale, "custom"),
        "report" => experiments::report::report(scale, "custom"),
        "campaign" => experiments::campaign::campaign(scale, "custom"),
        "chaos" => experiments::chaos::chaos(scale, "custom"),
        "fleet" => experiments::fleet::fleet(scale, "custom"),
        "anatomy" => experiments::anatomy::anatomy(scale, "custom"),
        other => panic!("unknown experiment '{other}'; known: {EXPERIMENT_NAMES:?}"),
    }
}

/// Whether [`run_experiment`] accepts `name` (for up-front CLI
/// validation, so a typo is reported before hours of runs, not after).
pub fn is_experiment_name(name: &str) -> bool {
    EXPERIMENT_NAMES.contains(&name)
}

/// All experiment names accepted by [`run_experiment`], in report order.
pub const EXPERIMENT_NAMES: [&str; 28] = [
    "table2",
    "fig2",
    "table1",
    "fig4",
    "fig6",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "overhead",
    "fig14a",
    "fig14b",
    "fig14c",
    "headline",
    "breakdown",
    "delete-latency",
    "ablation-k",
    "ablation-blocktrig",
    "ablation-lazy",
    "ablation-gc",
    "security-flagaging",
    "scheduler",
    "trace",
    "report",
    "campaign",
    "chaos",
    "fleet",
    "anatomy",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_experiments_run_by_name() {
        let scale = Scale::smoke();
        for name in ["table2", "fig2", "fig9", "fig10", "fig11", "fig12", "overhead", "ablation-k"]
        {
            let out = run_experiment(name, &scale);
            assert!(!out.is_empty(), "{name} produced no output");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_name_panics() {
        run_experiment("fig99", &Scale::smoke());
    }
}
