//! # evanesco-bench
//!
//! The benchmark/experiment harness of the Evanesco (ASPLOS 2020)
//! reproduction. For **every table and figure** in the paper's evaluation
//! there is a generator here that re-runs the experiment and prints the
//! same rows/series (see `DESIGN.md` for the experiment index).
//!
//! Every experiment — the paper artifacts, the ablations, and the seven
//! gate-bearing benches that write a checked `BENCH_*.json` /
//! `TRACE_scheduler.json` — is one row of [`EXPERIMENTS`]; the
//! `experiments` binary, its `--help` and the tier-1 every-experiment
//! test are loops over that table (DESIGN.md §17). Run everything with
//! `cargo run --release -p evanesco-bench --bin experiments -- all`. Host
//! wall-clock is measured by the repo benchmark (`BENCHMARK.json`,
//! `benchmark/`), not here.

pub mod experiments;
pub mod scale;

use evanesco_ssd::jsonlite::DriftRule;
use experiments::{
    ablation, anatomy, background, breakdown, campaign, chaos, dse, fleet, latency, reliability,
    report, scheduler, security, system, tracing, versioning,
};
pub use scale::Scale;

/// What running one experiment produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The regenerated table/figure as printable text.
    pub text: String,
    /// The artifact a gate-bearing experiment emits: `(file name, content)`.
    pub artifact: Option<(&'static str, String)>,
    /// Gate violations; empty = pass (always, for an ungated experiment).
    pub violations: Vec<String>,
}

/// One row of the experiment registry.
pub struct Experiment {
    /// The name the CLI accepts.
    pub name: &'static str,
    /// For a gate-bearing experiment: the artifact it writes and what
    /// fails its gate, in one line.
    pub gate: Option<&'static str>,
    /// Numeric drift the artifact is allowed against its checked-in
    /// same-scale predecessor (empty: not drift-gated).
    pub drift: &'static [DriftRule],
    /// Runs it at a scale; the second argument is the scale's name, for
    /// the artifact's provenance field.
    pub run: Run,
}

type Run = fn(&Scale, &str) -> Outcome;

const fn plain(name: &'static str, run: Run) -> Experiment {
    Experiment { name, gate: None, drift: &[], run }
}

const fn gated(name: &'static str, gate: &'static str, run: Run) -> Experiment {
    Experiment { name, gate: Some(gate), drift: &[], run }
}

fn text(text: String) -> Outcome {
    Outcome { text, artifact: None, violations: Vec::new() }
}

/// The `run` of a bench module that answers `run`, `render`, `to_json`
/// and `violations`.
macro_rules! bench {
    ($module:ident, $file:literal) => {
        |scale, scale_name| {
            let r = $module::run(scale, scale_name);
            Outcome {
                text: r.render(),
                artifact: Some(($file, r.to_json())),
                violations: r.violations(),
            }
        }
    };
}

/// Every experiment, in report order.
pub const EXPERIMENTS: [Experiment; 28] = [
    plain("table2", |s, _| text(background::table2(s))),
    plain("fig2", |_, _| text(background::fig2())),
    plain("table1", |s, _| text(versioning::table1(s))),
    plain("fig4", |s, _| text(versioning::fig4(s))),
    plain("fig6", |s, _| text(reliability::fig6(s))),
    plain("fig9", |_, _| text(dse::fig9())),
    plain("fig10", |_, _| text(reliability::fig10())),
    plain("fig11", |_, _| text(reliability::fig11())),
    plain("fig12", |_, _| text(dse::fig12())),
    plain("overhead", |_, _| text(background::overhead())),
    plain("fig14a", |s, _| text(system::fig14a(s))),
    plain("fig14b", |s, _| text(system::fig14b(s))),
    plain("fig14c", |s, _| text(system::fig14c(s))),
    plain("headline", |s, _| text(system::headline(s))),
    plain("breakdown", |s, _| text(breakdown::breakdown(s))),
    plain("delete-latency", |_, _| text(latency::delete_latency())),
    plain("ablation-k", |_, _| text(ablation::ablation_k())),
    plain("ablation-blocktrig", |s, _| text(ablation::ablation_blocktrig(s))),
    plain("ablation-lazy", |s, _| text(ablation::ablation_lazy(s))),
    plain("ablation-gc", |s, _| text(ablation::ablation_gc(s))),
    plain("security-flagaging", |_, _| text(security::security_flagaging())),
    gated(
        "scheduler",
        "BENCH_scheduler.json; fails when the queue-depth-8 speedup over the serialized \
         baseline falls under 1.5x",
        bench!(scheduler, "BENCH_scheduler.json"),
    ),
    gated(
        "trace",
        "TRACE_scheduler.json (open in chrome://tracing or Perfetto); fails on drift from \
         the checked-in schema, a traced run that differs from its untraced twin, segments \
         that do not tile a request, or an empty read histogram",
        |scale, scale_name| {
            let r = tracing::run(scale, scale_name);
            Outcome {
                text: r.render(),
                violations: r.violations(),
                artifact: Some(("TRACE_scheduler.json", r.chrome_json)),
            }
        },
    ),
    Experiment {
        drift: &report::DRIFT_RULES,
        ..gated(
            "report",
            "BENCH_report.json; fails on a timing-neutrality violation, broken Table-1 \
             ordering, or numeric drift against the checked-in same-scale baseline",
            bench!(report, "BENCH_report.json"),
        )
    },
    gated(
        "campaign",
        "BENCH_campaign.json; fails when a checkpoint-chained aging run diverges from its \
         uninterrupted twin",
        bench!(campaign, "BENCH_campaign.json"),
    ),
    gated(
        "chaos",
        "BENCH_chaos.json; metadata-corruption storm matrix, fails on any silent \
         wrong-data event, a broken injected/detected/repaired identity, queue-depth \
         variance, a watchdog identity breach, or a salvage-sweep violation",
        bench!(chaos, "BENCH_chaos.json"),
    ),
    gated(
        "fleet",
        "BENCH_fleet.json; multi-tenant noisy-neighbor matrix, fails when digests differ \
         across shard counts {1, 2, 4} or a rerun, or when QoS shaping does not cut the \
         worst victim p99 under the sanitization storm by 2x",
        bench!(fleet, "BENCH_fleet.json"),
    ),
    gated(
        "anatomy",
        "BENCH_anatomy.json; per-request stage decomposition, fails on a stage-tiling \
         breach at qd 1/8/32, a timing-neutrality breach, or when the victims' p99-tail \
         interference under the storm is not sanitization-dominated",
        bench!(anatomy, "BENCH_anatomy.json"),
    ),
];

/// The registry row called `name`, if any (the CLI validates names with
/// this up front, so a typo is reported before hours of runs, not after).
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Whether `name` is a registered experiment.
pub fn is_experiment_name(name: &str) -> bool {
    experiment(name).is_some()
}

/// Runs one named experiment and returns its text output.
///
/// # Panics
///
/// Panics on an unknown experiment name, listing the known ones.
pub fn run_experiment(name: &str, scale: &Scale) -> String {
    match experiment(name) {
        Some(e) => (e.run)(scale, "custom").text,
        None => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            panic!("unknown experiment '{name}'; known: {known:?}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_breached_gate_reaches_the_outcome() {
        // Nothing measured: Table 1 has no versions to order.
        let idle = Scale { write_multiplier: 0.0, ..Scale::smoke() };
        let out = (experiment("report").unwrap().run)(&idle, "idle");
        assert!(out.violations.iter().any(|v| v.contains("Table-1")), "{:?}", out.violations);
        assert!(out.artifact.unwrap().1.contains("\"scale\": \"idle\""));
    }
}
