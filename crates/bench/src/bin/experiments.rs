//! Regenerates the Evanesco paper's tables and figures.
//!
//! ```text
//! experiments [--quick|--smoke|--scale NAME] [--seed N] <name>... | all
//! ```
//!
//! The names, the scales and what each gate-bearing experiment writes and
//! fails on are printed by `--help`, from the one table that defines them
//! (`evanesco_bench::EXPERIMENTS`). A breached gate exits 1 after every
//! requested experiment ran; each experiment's wall time goes to stderr.
//! Default scale is `full` (use `--release`!).
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
//! Every argument error — an unknown flag, scale or experiment name, a
//! flag without its value, a missing `--resume-from` file, inconsistent
//! segment flags — is rejected up front (exit 1) before anything runs.

use evanesco_bench::experiments::campaign;
use evanesco_bench::{experiment, Scale, EXPERIMENTS};
use evanesco_ssd::jsonlite::drift;
use evanesco_ssd::{read_checkpoint, write_checkpoint, CheckpointError};
use std::path::PathBuf;

/// Exit code for a `--resume-from` checkpoint that exists but fails to
/// decode (corrupt or truncated) — distinct from the generic exit 1 so
/// CI and operators can tell "bad file" from "bad invocation".
const EXIT_CORRUPT_CHECKPOINT: i32 = 3;

const USAGE: &str = "usage: experiments [--quick|--smoke|--scale NAME] [--seed N] <name>...|all";

/// Every argument error ends here: the message, the usage line, exit 1.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE} (see --help)");
    std::process::exit(1)
}

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

fn scale_by_name(name: &str) -> Scale {
    match name {
        "paper" => Scale::paper(),
        "full" => Scale::full(),
        "quick" => Scale::quick(),
        "smoke" => Scale::smoke(),
        other => usage_error(&format!("unknown scale '{other}' (paper|full|quick|smoke)")),
    }
}

fn print_help() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("{USAGE}");
    eprintln!("names: {}", names.join(" "));
    eprintln!(
        "scales: paper (428 blocks per chip, the paper's device; practical for \
         fig14a fig14b fig14c headline breakdown), full (48, the default), \
         quick (12), smoke (miniature blocks); each experiment's wall time \
         goes to stderr"
    );
    eprintln!("gate-bearing (write an artifact and exit 1 on regression):");
    for e in &EXPERIMENTS {
        if let Some(gate) = e.gate {
            eprintln!("  {}: {gate}", e.name);
        }
    }
    eprintln!(
        "campaign segment mode (process-per-segment): campaign \
         [--segments N] (--segment K [--resume-from CKPT] | --baseline) \
         --checkpoint OUT [--scenario {}]",
        campaign::scenarios().map(|s| s.name).join("|")
    );
}

fn main() {
    let mut scale_name = "full".to_string();
    let mut seed: Option<u64> = None;
    let mut names: Vec<String> = Vec::new();
    let mut seg = SegmentMode::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value =
            |what: &str| args.next().unwrap_or_else(|| usage_error(&format!("{a} needs {what}")));
        let integer = |v: String| -> u64 {
            v.parse().unwrap_or_else(|_| usage_error(&format!("{a} needs an integer, got '{v}'")))
        };
        match a.as_str() {
            "--quick" => scale_name = "quick".to_string(),
            "--smoke" => scale_name = "smoke".to_string(),
            "--scale" => scale_name = value("a value (paper|full|quick|smoke)"),
            "--seed" => seed = Some(integer(value("a value"))),
            "--segments" => seg.segments = Some(integer(value("a value")) as usize),
            "--segment" => seg.segment = Some(integer(value("a value")) as usize),
            "--baseline" => seg.baseline = true,
            "--checkpoint" => seg.checkpoint = Some(value("a path").into()),
            "--resume-from" => seg.resume_from = Some(value("a path").into()),
            "--scenario" => seg.scenario = Some(value("a name")),
            "--help" | "-h" => return print_help(),
            // A typo'd flag must never be swallowed as an experiment name.
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'")),
            name => names.push(name.to_string()),
        }
    }
    let mut scale = scale_by_name(&scale_name);
    scale.seed = seed.unwrap_or(scale.seed);
    if let Some(p) = seg.resume_from.as_ref().filter(|p| !p.exists()) {
        usage_error(&format!("--resume-from {}: no such checkpoint file", p.display()));
    }
    if seg.segment.is_some() || seg.baseline {
        if let Err(msg) = run_campaign_segment(&scale, &seg) {
            usage_error(&format!("campaign segment mode: {msg}"));
        }
        return;
    }
    // Reject typos before running anything: a bad name at the end of a
    // long list must not cost the hours of runs before it.
    let all: Vec<String> = EXPERIMENTS.iter().map(|e| e.name.to_string()).collect();
    if let Some(bad) = names.iter().find(|n| *n != "all" && experiment(n).is_none()) {
        usage_error(&format!("unknown experiment '{bad}'\nknown: {}", all.join(" ")));
    }
    if names.is_empty() || names.iter().any(|n| n == "all") {
        names = all;
    }
    let mut gate_failed = false;
    for name in names {
        let started = std::time::Instant::now();
        let exp = experiment(&name).expect("validated above");
        let out = (exp.run)(&scale, &scale_name);
        println!("{}", out.text);
        let mut violations = out.violations;
        if let Some((file, content)) = out.artifact {
            // Gate against the checked-in baseline *before* overwriting it.
            if !exp.drift.is_empty() {
                match std::fs::read_to_string(file) {
                    Ok(baseline) => violations.extend(drift(&baseline, &content, exp.drift)),
                    Err(_) => println!("no {file} baseline found; drift gate skipped"),
                }
            }
            if let Err(e) = std::fs::write(file, content) {
                eprintln!("write {file}: {e}");
                std::process::exit(1);
            }
            println!("wrote {file}");
        }
        for v in &violations {
            eprintln!("{name} gate FAILED: {v}");
        }
        gate_failed |= !violations.is_empty();
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
