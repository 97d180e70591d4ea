//! The `experiments` binary's argument contract: caller input never
//! panics, and `--help` is the registry.

use evanesco_bench::EXPERIMENTS;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("binary runs")
}

#[test]
fn every_argument_error_exits_1_with_the_usage_line() {
    for args in [
        &["--bogus"][..],
        &["--scale", "bogus", "fig2"],
        &["--scale"],
        &["--seed", "x", "fig2"],
        &["--seed"],
        &["--segments", "x"],
        &["--checkpoint"],
        &["--smoke", "fig2", "schedular"],
        &["--smoke", "campaign", "--segment", "0"],
        &["--smoke", "campaign", "--segment", "1", "--resume-from", "/nonexistent.ckpt"],
    ] {
        let out = experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran something before rejecting");
    }
}

#[test]
fn help_lists_every_name_and_every_artifact() {
    let out = experiments(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = String::from_utf8_lossy(&out.stderr);
    for e in &EXPERIMENTS {
        assert!(help.contains(e.name), "--help misses '{}'", e.name);
        if let Some(gate) = e.gate {
            assert!(help.contains(gate), "--help misses the gate of '{}'", e.name);
        }
    }
    for bench in ["scheduler", "report", "campaign", "chaos", "fleet", "anatomy"] {
        assert!(help.contains(&format!("BENCH_{bench}.json")), "--help misses BENCH_{bench}.json");
    }
    assert!(help.contains("TRACE_scheduler.json"));
}
