//! Observability self-check and chrome://tracing export (CI-gated).
//!
//! Runs the scheduler benchmark's deterministic mixed trace at queue
//! depth 8 twice — once on the default (tracing-disabled) path, once with
//! request tracing and the live sanitization gauges on — and enforces the
//! observability layer's contract:
//!
//! 1. **schema** — the chrome trace-event export validates against the
//!    checked-in `tests/data/trace_schema.json` (drift fails CI);
//! 2. **timing neutrality** — simulated results are byte-identical with
//!    tracing on and off (observation must never change the experiment);
//! 3. **span invariant** — for every traced request the derived segments
//!    sum exactly to its recorded end-to-end latency;
//! 4. **read latency** — the histogram the PR's headline bugfix
//!    un-discarded is populated;
//! 5. **overhead** — the disabled-tracing path stays within 5% of the
//!    fastest measured configuration (min-of-N wall clock; the disabled
//!    path is a single predicted branch per reservation, so it must never
//!    lose to the enabled path by more than noise).
//!
//! Prints the export path and a Prometheus scrape excerpt, exits 1 on any
//! gate failure.
//!
//! ```bash
//! cargo run --release --example trace_export
//! ```

use evanesco::ftl::SanitizePolicy;
use evanesco::ssd::{validate_chrome_trace, Emulator, HostOp, SsdConfig};
use evanesco_bench::experiments::scheduler::{mixed_trace, sched_config};
use evanesco_bench::Scale;
use std::time::Instant;

const SCHEMA: &str = include_str!("../tests/data/trace_schema.json");
const QD: usize = 8;
const REPS: usize = 5;
const MAX_DISABLED_OVERHEAD: f64 = 0.05;

fn run_once(cfg: SsdConfig, ops: &[HostOp], traced: bool) -> (Emulator, f64) {
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    if traced {
        ssd.enable_gauges();
        ssd.enable_tracing(1 << 16);
    }
    let t = Instant::now();
    ssd.run_scheduled(ops, QD);
    let wall = t.elapsed().as_secs_f64();
    ssd.flush_coalesced_locks();
    (ssd, wall)
}

fn main() {
    let scale = Scale::smoke();
    let cfg = sched_config(&scale);
    let logical = cfg.ftl.logical_pages();
    let requests = ((logical / 2) as usize).clamp(512, 20_000);
    let ops = mixed_trace(logical, requests, scale.seed);
    let mut failed = false;

    // Min-of-N wall clock for both paths; keep the last emulator of each.
    let mut plain_wall = f64::INFINITY;
    let mut traced_wall = f64::INFINITY;
    let (mut plain, mut traced) = (None, None);
    for _ in 0..REPS {
        let (ssd, w) = run_once(cfg, &ops, false);
        plain_wall = plain_wall.min(w);
        plain = Some(ssd);
        let (ssd, w) = run_once(cfg, &ops, true);
        traced_wall = traced_wall.min(w);
        traced = Some(ssd);
    }
    let plain = plain.unwrap();
    let mut traced = traced.unwrap();

    // Gate 2: observation never changes the experiment.
    let (a, b) = (plain.result(), traced.result());
    if (a.sim_time, a.host_ops, a.ftl) != (b.sim_time, b.host_ops, b.ftl) {
        eprintln!("FAIL: tracing changed simulated results: {a:?} vs {b:?}");
        failed = true;
    } else {
        println!("timing neutral: {} ns simulated either way", a.sim_time.0);
    }

    // Gate 4: the read-latency histogram is populated.
    let reads = b.latency.read;
    if reads.count() == 0 || reads.max().0 == 0 {
        eprintln!("FAIL: read latency histogram empty at qd {QD}");
        failed = true;
    } else {
        println!(
            "read latency: {} samples, p50 {:.1} us, p99 {:.1} us",
            reads.count(),
            reads.percentile(50.0).0 as f64 / 1e3,
            reads.percentile(99.0).0 as f64 / 1e3,
        );
    }

    // Prometheus scrape excerpt (full scrape is ~200 lines).
    let scrape = traced.prometheus_scrape();
    for line in scrape.lines().filter(|l| !l.starts_with('#')) {
        if ["evanesco_iops", "evanesco_waf", "evanesco_vaf", "evanesco_t_insecure"]
            .iter()
            .any(|m| line.starts_with(m))
        {
            println!("scrape: {line}");
        }
    }

    // Gates 1 and 3: schema-valid export, segments tile every request.
    let recorder = traced.take_trace().expect("tracing was enabled");
    for t in recorder.traces() {
        let sum: u64 = t.segments().map(|s| s.dur().0).sum();
        if sum != t.e2e().0 {
            eprintln!("FAIL: request {} spans sum {} != e2e {}", t.id, sum, t.e2e().0);
            failed = true;
            break;
        }
    }
    let json = recorder.to_chrome_json();
    match validate_chrome_trace(&json, SCHEMA) {
        Ok(()) => println!(
            "chrome export: {} traces, {} bytes, schema OK",
            recorder.recorded().min(recorder.capacity() as u64),
            json.len()
        ),
        Err(e) => {
            eprintln!("FAIL: trace schema drift: {e}");
            failed = true;
        }
    }
    let out = std::env::temp_dir().join("evanesco_trace.json");
    std::fs::write(&out, &json).expect("write trace export");
    println!("wrote {} (open in chrome://tracing or Perfetto)", out.display());

    // Gate 5: the disabled path never loses to the enabled one by more
    // than noise. (Its true overhead vs. pre-instrumentation code is one
    // predicted branch per reservation — unmeasurable here; this bounds
    // inverted-gating regressions, e.g. event collection running while
    // disabled.)
    let fastest = plain_wall.min(traced_wall);
    let overhead = plain_wall / fastest - 1.0;
    println!(
        "wall clock (min of {REPS}): disabled {:.1} ms, enabled {:.1} ms, disabled-path overhead {:.1}%",
        plain_wall * 1e3,
        traced_wall * 1e3,
        overhead * 100.0
    );
    if overhead > MAX_DISABLED_OVERHEAD {
        eprintln!(
            "FAIL: disabled-tracing path is {:.1}% over the fastest configuration (max {:.0}%)",
            overhead * 100.0,
            MAX_DISABLED_OVERHEAD * 100.0
        );
        failed = true;
    }

    if failed {
        std::process::exit(1);
    }
    println!("all observability gates passed");
}
