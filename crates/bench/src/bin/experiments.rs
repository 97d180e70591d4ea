//! Regenerates the Evanesco paper's tables and figures.
//!
//! ```text
//! experiments [--quick|--smoke|--scale NAME] [--seed N] <name>... | all
//! ```
//!
//! Scales: `paper` (428 blocks per chip — the paper's device; practical
//! for `fig14a fig14b fig14c headline breakdown`), `full` (48, the
//! default), `quick` (12), `smoke` (miniature blocks). Each experiment's
//! wall time is printed to stderr.
//!
//! Names: table2 fig2 table1 fig4 fig6 fig9 fig10 fig11 fig12 overhead
//! fig14a fig14b fig14c headline breakdown delete-latency ablation-k
//! ablation-blocktrig ablation-lazy ablation-gc security-flagaging
//! scheduler trace report campaign chaos fleet anatomy
//! (`evanesco_bench::EXPERIMENT_NAMES`). Default scale is `full` (use
//! `--release`!).
//!
//! The last seven carry regression gates (and fail the process with exit
//! 1 when breached):
//!
//! * `scheduler` — writes `BENCH_scheduler.json` and fails when the
//!   queue-depth-8 speedup over the serialized baseline falls under the
//!   gate;
//! * `trace` — writes the chrome://tracing export to
//!   `TRACE_scheduler.json` and fails if the export drifts from the
//!   checked-in schema;
//! * `report` — writes the consolidated observability report to
//!   `BENCH_report.json` and fails on a timing-neutrality violation,
//!   live-vs-offline attribution disagreement, broken Table-1 ordering,
//!   or numeric drift against a checked-in same-scale baseline;
//! * `campaign` — writes the checkpointed aging-campaign report to
//!   `BENCH_campaign.json` and fails if any scenario's chained-through-
//!   checkpoints run diverges from its uninterrupted control run;
//! * `chaos` — writes the metadata-corruption storm matrix to
//!   `BENCH_chaos.json` and fails on any silent wrong-data event
//!   (differential vs an uncorrupted twin), a broken injected ↔
//!   detected/repaired accounting identity, queue-depth variance, a
//!   watchdog identity breach, or a salvage-sweep violation;
//! * `fleet` — writes the multi-tenant noisy-neighbor matrix to
//!   `BENCH_fleet.json` and fails when per-device digests differ across
//!   shard counts {1, 2, 4} or a rerun (determinism breach), or when
//!   QoS shaping fails to cut the worst victim p99 under the
//!   sanitization storm by the gate factor;
//! * `anatomy` — writes the per-request latency-anatomy report to
//!   `BENCH_anatomy.json` and fails when any request's stage sum
//!   differs from its end-to-end latency at queue depth 1, 8, or 32
//!   (tiling breach), when enabling the layer changes any simulated
//!   result (timing-neutrality breach), or when the victims' p99-tail
//!   interference under the sanitization storm is not majority-blamed
//!   on sanitization locks.
//!
//! The campaign also has a per-process segment mode for real
//! stop/restart chains (what the CI `campaign-gate` job byte-diffs):
//!
//! ```text
//! experiments --smoke campaign --segments 2 --segment 0 --checkpoint seg0.ckpt
//! experiments --smoke campaign --segments 2 --segment 1 \
//!     --resume-from seg0.ckpt --checkpoint seg1.ckpt
//! experiments --smoke campaign --segments 2 --baseline --checkpoint base.ckpt
//! cmp seg1.ckpt base.ckpt
//! ```
//!
//! Unknown experiment names, a missing `--resume-from` file, and
//! inconsistent segment flags are all rejected up front (exit 1) before
//! any experiment runs.

use evanesco_bench::experiments::{anatomy, campaign, chaos, fleet, report, scheduler, tracing};
use evanesco_bench::{is_experiment_name, run_experiment, Scale, EXPERIMENT_NAMES};
use evanesco_ssd::{read_checkpoint, write_checkpoint, CheckpointError};
use std::path::PathBuf;

/// Exit code for a `--resume-from` checkpoint that exists but fails to
/// decode (corrupt or truncated) — distinct from the generic exit 1 so
/// CI and operators can tell "bad file" from "bad invocation".
const EXIT_CORRUPT_CHECKPOINT: i32 = 3;

/// Flags selecting the campaign's per-process segment mode.
#[derive(Default)]
struct SegmentMode {
    segments: Option<usize>,
    segment: Option<usize>,
    baseline: bool,
    checkpoint: Option<PathBuf>,
    resume_from: Option<PathBuf>,
    scenario: Option<String>,
}

fn main() {
    let mut scale = Scale::full();
    let mut scale_name = "full".to_string();
    let mut names: Vec<String> = Vec::new();
    let mut seg = SegmentMode::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => {
                scale = Scale::quick();
                scale_name = "quick".to_string();
            }
            "--smoke" => {
                scale = Scale::smoke();
                scale_name = "smoke".to_string();
            }
            "--scale" => {
                let v = args.next().expect("--scale needs a value (paper|full|quick|smoke)");
                scale = match v.as_str() {
                    "paper" => Scale::paper(),
                    "full" => Scale::full(),
                    "quick" => Scale::quick(),
                    "smoke" => Scale::smoke(),
                    other => panic!("unknown scale '{other}' (paper|full|quick|smoke)"),
                };
                scale_name = v;
            }
            "--seed" => {
                let v = args.next().expect("--seed needs a value");
                scale.seed = v.parse().expect("--seed needs an integer");
            }
            "--segments" => {
                let v = args.next().expect("--segments needs a value");
                seg.segments = Some(v.parse().expect("--segments needs an integer"));
            }
            "--segment" => {
                let v = args.next().expect("--segment needs a value");
                seg.segment = Some(v.parse().expect("--segment needs an integer"));
            }
            "--baseline" => seg.baseline = true,
            "--checkpoint" => {
                seg.checkpoint = Some(args.next().expect("--checkpoint needs a path").into());
            }
            "--resume-from" => {
                seg.resume_from = Some(args.next().expect("--resume-from needs a path").into());
            }
            "--scenario" => {
                seg.scenario = Some(args.next().expect("--scenario needs a name"));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--quick|--smoke|--scale NAME] [--seed N] <name>...|all"
                );
                eprintln!("names: {}", EXPERIMENT_NAMES.join(" "));
                eprintln!(
                    "scales: paper (428 blocks per chip, the paper's device; practical for \
                     fig14a fig14b fig14c headline breakdown), full (48, the default), \
                     quick (12), smoke (miniature blocks); each experiment's wall time \
                     goes to stderr"
                );
                eprintln!(
                    "gate-bearing (write an artifact and exit 1 on regression): \
                     scheduler (BENCH_scheduler.json), trace (TRACE_scheduler.json), \
                     report (BENCH_report.json), campaign (BENCH_campaign.json; fails \
                     when a checkpoint-chained run diverges from its uninterrupted twin), \
                     chaos (BENCH_chaos.json; corruption storm matrix, fails on any \
                     silent wrong-data event or broken accounting identity), \
                     fleet (BENCH_fleet.json; multi-tenant noisy-neighbor matrix, fails \
                     on a shard/rerun determinism breach or a QoS p99 inversion), \
                     anatomy (BENCH_anatomy.json; per-request stage decomposition, fails \
                     on a stage-tiling breach at qd 1/8/32, a timing-neutrality breach, \
                     or when the victims' p99-tail interference is not \
                     sanitization-dominated under the storm)"
                );
                eprintln!(
                    "campaign segment mode (process-per-segment): campaign \
                     [--segments N] (--segment K [--resume-from CKPT] | --baseline) \
                     --checkpoint OUT [--scenario {}]",
                    campaign::scenarios().map(|s| s.name).join("|")
                );
                return;
            }
            other => {
                // Reject unknown flags up front (exit 1): a typo'd flag
                // must never be silently swallowed as an experiment name.
                if other.starts_with('-') {
                    eprintln!("unknown flag '{other}' (see --help)");
                    std::process::exit(1);
                }
                names.push(other.to_string());
            }
        }
    }
    // Reject bad segment-mode flag combinations and a dangling
    // --resume-from path before anything runs.
    if let Some(p) = &seg.resume_from {
        if !p.exists() {
            eprintln!("--resume-from {}: no such checkpoint file", p.display());
            std::process::exit(1);
        }
    }
    if seg.segment.is_some() || seg.baseline {
        if let Err(msg) = run_campaign_segment(&scale, &seg) {
            eprintln!("campaign segment mode: {msg}");
            std::process::exit(1);
        }
        return;
    }
    // Reject typos before running anything: a bad name at the end of a
    // long list must not cost the hours of runs before it.
    let unknown: Vec<&String> =
        names.iter().filter(|n| *n != "all" && !is_experiment_name(n)).collect();
    if !unknown.is_empty() {
        for n in unknown {
            eprintln!("unknown experiment '{n}'");
        }
        eprintln!("known: {}", EXPERIMENT_NAMES.join(" "));
        std::process::exit(1);
    }
    if names.is_empty() || names.iter().any(|n| n == "all") {
        names = EXPERIMENT_NAMES.iter().map(|s| s.to_string()).collect();
    }
    let mut gate_failed = false;
    for name in names {
        let started = std::time::Instant::now();
        if name == "scheduler" {
            let report = scheduler::run(&scale, &scale_name);
            println!("{}", report.render());
            std::fs::write("BENCH_scheduler.json", report.to_json())
                .expect("write BENCH_scheduler.json");
            println!("wrote BENCH_scheduler.json");
            if !report.gate_passes() {
                eprintln!(
                    "scheduler gate FAILED: qd {} speedup {:.2}x < {:.1}x",
                    scheduler::GATE_QD,
                    report.gate_speedup(),
                    scheduler::GATE_MIN_SPEEDUP,
                );
                gate_failed = true;
            }
        } else if name == "trace" {
            let report = tracing::run(&scale, &scale_name);
            println!("{}", report.render());
            std::fs::write("TRACE_scheduler.json", &report.chrome_json)
                .expect("write TRACE_scheduler.json");
            println!("wrote TRACE_scheduler.json (open in chrome://tracing or Perfetto)");
            if let Err(e) = report.validate() {
                eprintln!("trace schema DRIFT: {e}");
                gate_failed = true;
            }
        } else if name == "report" {
            let bundle = report::run(&scale, &scale_name);
            println!("{}", bundle.render());
            let mut violations = bundle.self_check();
            // Gate against the checked-in baseline *before* overwriting it.
            match std::fs::read_to_string("BENCH_report.json") {
                Ok(baseline) => violations.extend(bundle.drift_against(&baseline)),
                Err(_) => println!("no BENCH_report.json baseline found; drift gate skipped"),
            }
            std::fs::write("BENCH_report.json", bundle.to_json()).expect("write BENCH_report.json");
            println!("wrote BENCH_report.json");
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!("report gate FAILED: {v}");
                }
                gate_failed = true;
            }
        } else if name == "chaos" {
            let bundle = chaos::run(&scale, &scale_name);
            println!("{}", bundle.render());
            std::fs::write("BENCH_chaos.json", bundle.to_json()).expect("write BENCH_chaos.json");
            println!("wrote BENCH_chaos.json");
            for v in bundle.violations() {
                eprintln!("chaos gate FAILED: {v}");
                gate_failed = true;
            }
        } else if name == "fleet" {
            let bench = fleet::run(&scale, &scale_name);
            println!("{}", bench.render());
            std::fs::write("BENCH_fleet.json", bench.to_json()).expect("write BENCH_fleet.json");
            println!("wrote BENCH_fleet.json");
            for v in bench.violations() {
                eprintln!("fleet gate FAILED: {v}");
                gate_failed = true;
            }
        } else if name == "anatomy" {
            let bench = anatomy::run(&scale, &scale_name);
            println!("{}", bench.render());
            std::fs::write("BENCH_anatomy.json", bench.to_json())
                .expect("write BENCH_anatomy.json");
            println!("wrote BENCH_anatomy.json");
            for v in bench.violations() {
                eprintln!("anatomy gate FAILED: {v}");
                gate_failed = true;
            }
        } else if name == "campaign" {
            let bundle = campaign::run(&scale, &scale_name);
            println!("{}", bundle.render());
            std::fs::write("BENCH_campaign.json", bundle.to_json())
                .expect("write BENCH_campaign.json");
            println!("wrote BENCH_campaign.json");
            for v in bundle.violations() {
                eprintln!("campaign gate FAILED: {v}");
                gate_failed = true;
            }
        } else {
            println!("{}", run_experiment(&name, &scale));
        }
        println!();
        // stderr, so that stdout still diffs against full_experiments.txt.
        eprintln!("[{name}: {:.1} s]", started.elapsed().as_secs_f64());
    }
    if gate_failed {
        std::process::exit(1);
    }
}

/// One process of a stop/restart campaign chain: runs segment K (or the
/// whole uninterrupted baseline) and writes the resulting checkpoint.
/// Every process regenerates the same workload trace from the scale, so
/// only device state travels between processes — inside the checkpoint.
fn run_campaign_segment(scale: &Scale, seg: &SegmentMode) -> Result<(), String> {
    let segments = seg.segments.unwrap_or(2);
    if segments == 0 {
        return Err("--segments must be at least 1".into());
    }
    let scenario = match &seg.scenario {
        None => campaign::default_scenario(),
        Some(name) => campaign::scenario_by_name(name).ok_or_else(|| {
            format!(
                "unknown scenario '{name}' (known: {})",
                campaign::scenarios().map(|s| s.name).join(" ")
            )
        })?,
    };
    let out = seg.checkpoint.as_ref().ok_or("--checkpoint PATH is required")?;

    if seg.baseline {
        if seg.segment.is_some() {
            return Err("--baseline and --segment are mutually exclusive".into());
        }
        let (bytes, _, digests) = campaign::run_uninterrupted(scale, &scenario, segments);
        std::fs::write(out, &bytes).map_err(|e| format!("write {}: {e}", out.display()))?;
        let d = digests.last().expect("segments >= 1");
        println!(
            "baseline ({}, {} segments): {} host ops, {} erases, mode {}; wrote {}",
            scenario.name,
            segments,
            d.host_ops,
            d.erases,
            d.mode,
            out.display()
        );
        return Ok(());
    }

    let k = seg.segment.expect("checked by caller");
    if k >= segments {
        return Err(format!("--segment {k} out of range for --segments {segments}"));
    }
    let mut ssd = match (&seg.resume_from, k) {
        (None, 0) => campaign::fresh_device(scale, &scenario),
        (None, _) => return Err(format!("--segment {k} needs --resume-from")),
        (Some(_), 0) => return Err("--segment 0 starts fresh; drop --resume-from".into()),
        (Some(p), _) => match read_checkpoint(p) {
            Ok(ssd) => ssd,
            Err(CheckpointError::Snapshot(e)) => {
                // One line naming exactly what is damaged (the strict
                // decoder's error carries the failing section), then the
                // dedicated exit code for a corrupt/truncated checkpoint.
                let msg = e.to_string();
                let msg = msg.strip_prefix("corrupt checkpoint: ").unwrap_or(&msg);
                eprintln!("--resume-from {}: corrupt checkpoint: {msg}", p.display());
                std::process::exit(EXIT_CORRUPT_CHECKPOINT);
            }
            Err(e) => return Err(format!("{}: {e}", p.display())),
        },
    };
    let trace = campaign::build_trace(scale, ssd.logical_pages());
    campaign::run_segment(&mut ssd, &trace, &scenario, segments, k);
    write_checkpoint(&ssd, out).map_err(|e| format!("write {}: {e}", out.display()))?;
    let r = ssd.result();
    println!(
        "segment {k}/{segments} ({}): {} host ops, sim {} ns, {} erases, mode {:?}; wrote {}",
        scenario.name,
        r.host_ops,
        r.sim_time.0,
        r.erases,
        ssd.ftl().degraded(),
        out.display()
    );
    Ok(())
}
