//! Latency anatomy demo: where did every nanosecond of tail latency go?
//!
//! Runs the scheduler benchmark's deterministic mixed trace at queue
//! depth 8 with the anatomy layer enabled, prints the per-stage
//! decomposition aggregate and the **top-5 slowest requests** with their
//! causal chains (which sanitization lock, GC copy, or retry actually
//! occupied the resource they were stuck behind), and enforces the
//! layer's core contract on every recorded request:
//!
//! > QoS wait + queue wait + dispatch stall + transfer + chip service
//! > + sanitize/GC/retry interference **== end-to-end latency, exactly**.
//!
//! Exits 1 on any tiling violation.
//!
//! ```bash
//! cargo run --release --example anatomy
//! ```

use evanesco::ftl::SanitizePolicy;
use evanesco::ssd::anatomy::REQ_KINDS;
use evanesco::ssd::{Emulator, Stage};
use evanesco_bench::experiments::scheduler::{mixed_trace, sched_config};
use evanesco_bench::Scale;

const QD: usize = 8;
const TOP: usize = 5;

fn main() {
    let scale = Scale::smoke();
    let cfg = sched_config(&scale);
    let logical = cfg.ftl.logical_pages();
    let requests = ((logical / 2) as usize).clamp(512, 20_000);
    let ops = mixed_trace(logical, requests, scale.seed);

    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    ssd.enable_anatomy(ops.len(), TOP);
    ssd.run_scheduled(&ops, QD);
    let an = ssd.take_anatomy().expect("anatomy was enabled");

    // Aggregate stage shares across all request kinds.
    let mut stage_ns = [0u64; Stage::COUNT];
    let mut e2e_ns = 0u64;
    let mut violations = 0u64;
    for row in an.rows() {
        if row.stage_sum() != row.e2e() {
            eprintln!(
                "FAIL: request {} ({}) stages sum {} ns != e2e {} ns",
                row.trace_id,
                row.kind.label(),
                row.stage_sum().0,
                row.e2e().0
            );
            violations += 1;
        }
        e2e_ns += row.e2e().0;
        for s in Stage::ALL {
            stage_ns[s.idx()] += row.stage(s).0;
        }
    }

    println!(
        "anatomy: {} requests recorded ({} evicted), qd {QD}, {} kinds",
        an.recorded(),
        an.dropped(),
        REQ_KINDS.len()
    );
    println!("\nstage decomposition (share of total end-to-end time):");
    for s in Stage::ALL {
        let share = if e2e_ns == 0 { 0.0 } else { stage_ns[s.idx()] as f64 / e2e_ns as f64 };
        println!(
            "  {:<22} {:>10.3} ms  {:>6.2}%",
            s.label(),
            stage_ns[s.idx()] as f64 / 1e6,
            share * 100.0
        );
    }

    println!("\ntop-{TOP} slowest requests with causal chains:");
    for row in an.top() {
        let dominant =
            Stage::ALL.into_iter().max_by_key(|s| row.stage(*s)).expect("stage list is non-empty");
        println!(
            "  #{} {} lpa {} x{}: e2e {:.1} us, dominant stage {} ({:.1} us, interference {:.1} us)",
            row.trace_id,
            row.kind.label(),
            row.lpa,
            row.npages,
            row.e2e().0 as f64 / 1e3,
            dominant.label(),
            row.stage(dominant).0 as f64 / 1e3,
            row.interference().0 as f64 / 1e3,
        );
        for link in row.chain() {
            println!(
                "      [{:>9}..{:>9}] {:>7.1} us  {} <- {} ({}{})",
                link.start.0,
                link.end.0,
                link.dur().0 as f64 / 1e3,
                link.stage.label(),
                link.kind.label(),
                if link.own { "own " } else { "neighbor " },
                link.cause.label(),
            );
        }
    }

    if violations > 0 {
        eprintln!("\nFAIL: {violations} tiling violations — stage sums must equal e2e exactly");
        std::process::exit(1);
    }
    println!("\nall {} requests tile exactly: stage sum == end-to-end latency", an.recorded());
}
