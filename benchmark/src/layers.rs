//! The traced / per-layer pass. Everything is measured from outside the
//! product: direct timing of public functions, and the **ladder** — the
//! same requests through successively thicker stacks, each step asserting
//! the same host-visible results:
//!
//! * L0 `Ftl` over `MemExecutor` · L1 `Ftl` over `TimedExecutor`
//! * L2 `Emulator::run_scheduled` at qd 1, ideal flags · L3 at the
//!   workload's qd · L4 with physical pAP/bAP flags
//! * L5.x L4 plus one observer at a time
//!
//! L0 and L1 are also run under the benchmark's `SpanExecutor`, which
//! gives the FTL's self time and the tracer's own overhead.

use crate::oracle::Shadow;
use crate::report::Metrics;
use crate::spans::{SpanExecutor, CHROME_SCHEMA};
use crate::stats::median;
use crate::workloads::{
    self, admitted, churn_config, device, Scheduled, FLEET_STORM, OBSERVERS, READ_DEEP,
    SANITIZE_CHURN,
};
use evanesco_core::bap::BapConfig;
use evanesco_core::chip::EvanescoChip;
use evanesco_core::fault::CorruptionConfig;
use evanesco_core::pap::PapConfig;
use evanesco_fleet::{admission_order, run_fleet, FleetConfig};
use evanesco_ftl::executor::{MemExecutor, NandExecutor};
use evanesco_ftl::observer::NullObserver;
use evanesco_ftl::{Ftl, FtlStats, SanitizePolicy};
use evanesco_nand::chip::{Chip, PageData};
use evanesco_nand::geometry::{BlockId, Geometry, Ppa};
use evanesco_nand::timing::Nanos;
use evanesco_ssd::anatomy::Stage;
use evanesco_ssd::device::TimedExecutor;
use evanesco_ssd::trace::ReqKind;
use evanesco_ssd::{Emulator, HostOp, OpResult, RunResult, Scheduler, SsdConfig};
use evanesco_workloads::generate::generate;
use evanesco_workloads::{generate_fleet, Trace, TraceOp, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Requests each ladder step runs: small enough that a whole traced run
/// stays near ten seconds with the observers costing up to 30×, large
/// enough to reach GC and lock coalescing.
pub const LADDER_REQUESTS: usize = 50_000;

/// Repetitions per timed step; the median is reported. Steps of tens of
/// milliseconds read ±40 % apart on the sandbox, and the layer metrics
/// are differences of steps.
const REPS: usize = 5;

/// Spans written to the chrome trace: the first requests of the step. All
/// spans count towards the metrics; parsing a 38 MB export of all of them
/// back for validation alone took the traced run past 600 MiB.
const EXPORTED_SPANS: usize = 50_000;

/// Repetitions of each direct timing, which run hundreds of thousands of
/// calls apiece.
const DIRECT_REPS: usize = 3;

/// What one workload sends down the ladder.
pub struct LadderInput {
    pub cfg: SsdConfig,
    pub policy: SanitizePolicy,
    pub prefill: Vec<HostOp>,
    pub ops: Vec<HostOp>,
    pub qd: usize,
}

fn host_ops(ops: &[TraceOp]) -> Vec<HostOp> {
    ops.iter().map(workloads::host_op).collect()
}

fn db_server_trace(cfg: &SsdConfig, main_write_pages: u64, seed: u64) -> Trace {
    generate(&WorkloadSpec::db_server(), cfg.ftl.logical_pages(), main_write_pages, seed)
}

/// The workload's own requests (a prefix of them), so each workload's
/// traced run splits the time of *its* path.
pub fn ladder_input(workload: &str, seed: u64) -> LadderInput {
    let scheduled = |w: Scheduled| {
        let (prefill, ops) = Scheduled { requests: LADDER_REQUESTS, ..w }.ops(seed);
        LadderInput {
            cfg: churn_config(),
            policy: SanitizePolicy::evanesco(),
            prefill,
            ops,
            qd: w.qd,
        }
    };
    let mut input = match workload {
        "sanitize_churn" | "observed_churn" => scheduled(SANITIZE_CHURN),
        "read_deep" => scheduled(READ_DEEP),
        // DBServer is the overwrite-heavy trace, the paper's worst case
        // for lock traffic; the serialized path is queue depth 1.
        "table2_policies" => {
            let cfg = workloads::Table2.config();
            let trace = db_server_trace(&cfg, cfg.ftl.logical_pages(), seed);
            LadderInput {
                cfg,
                policy: SanitizePolicy::evanesco(),
                prefill: host_ops(&trace.prefill),
                ops: host_ops(&trace.ops),
                qd: 1,
            }
        }
        // Device 0's admitted stream, closed loop.
        "fleet_storm" => {
            let cfg = FLEET_STORM.config(seed, SanitizePolicy::evanesco());
            let trace = &generate_fleet(&cfg.traffic, 1, cfg.namespace_window())[0];
            let (_, ops, _) = admitted(&cfg, trace);
            LadderInput { cfg: cfg.ssd, policy: cfg.policy, prefill: Vec::new(), ops, qd: cfg.qd }
        }
        _ => unreachable!("workload names are checked at the command line"),
    };
    input.ops.truncate(LADDER_REQUESTS);
    input
}

// ---------------------------------------------------------------------
// L0 / L1: the FTL driven directly
// ---------------------------------------------------------------------

/// Executes `ops` on `ftl` the way `Emulator::dispatch_scheduled` does —
/// page by page, tags handed out in submission order, one `OpResult` per
/// request — bracketing each request with `begin` / `end` (the tracer's
/// seam).
fn drive_ftl<E: NandExecutor>(
    ftl: &mut Ftl,
    ex: &mut E,
    ops: &[HostOp],
    next_tag: &mut u64,
    results: &mut Vec<OpResult>,
    begin: impl Fn(&mut E, &'static str, u32),
    end: impl Fn(&mut E),
) {
    let mut lpas = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            HostOp::Write { lpa, npages, secure } => {
                begin(ex, "ftl.write", i as u32);
                let tags: Vec<u64> = (*next_tag..*next_tag + npages).collect();
                *next_tag += npages;
                let mut ok = true;
                for (k, &tag) in tags.iter().enumerate() {
                    ok &= ftl.write(ex, &mut NullObserver, lpa + k as u64, secure, tag);
                }
                end(ex);
                results.push(OpResult::Write(tags, ok));
            }
            HostOp::Read { lpa, npages } => {
                begin(ex, "ftl.read", i as u32);
                let got = (0..npages).map(|k| ftl.read(ex, lpa + k).map(|p| p.tag())).collect();
                end(ex);
                results.push(OpResult::Read(got));
            }
            HostOp::Trim { lpa, npages } => {
                begin(ex, "ftl.trim", i as u32);
                lpas.clear();
                lpas.extend(lpa..lpa + npages);
                ftl.trim(ex, &mut NullObserver, &lpas);
                end(ex);
                results.push(OpResult::Trim(true));
            }
        }
    }
}

fn no_begin<E>(_: &mut E, _: &'static str, _: u32) {}
fn no_end<E>(_: &mut E) {}

/// One repetition of an FTL-level step.
struct FtlStep<E> {
    wall_s: f64,
    digest: u64,
    stats: FtlStats,
    ex: E,
}

fn ftl_step<E: NandExecutor>(
    input: &LadderInput,
    mut ex: E,
    begin: impl Fn(&mut E, &'static str, u32),
    end: impl Fn(&mut E),
) -> FtlStep<E> {
    let mut ftl = Ftl::new(input.cfg.ftl, input.policy);
    let (mut tag, mut results) = (1, Vec::with_capacity(input.ops.len()));
    drive_ftl(&mut ftl, &mut ex, &input.prefill, &mut tag, &mut Vec::new(), no_begin, no_end);
    let before = ftl.stats();
    let t = Instant::now();
    drive_ftl(&mut ftl, &mut ex, &input.ops, &mut tag, &mut results, begin, end);
    ftl.flush_coalesced(&mut ex, &mut NullObserver);
    let wall_s = t.elapsed().as_secs_f64();
    let digest = workloads::results_digest(workloads::DIGEST_SEED, &results);
    FtlStep { wall_s, digest, stats: ftl.stats().since(&before), ex }
}

// ---------------------------------------------------------------------
// L2 – L5: the emulator
// ---------------------------------------------------------------------

/// One repetition of an emulator-level step.
struct EmuStep {
    wall_s: f64,
    digest: u64,
    /// Counters and simulated time over the measured requests.
    result: RunResult,
    max_outstanding: usize,
    /// Per-request simulated latency, ascending.
    lat_ns: Vec<u64>,
    ssd: Emulator,
}

fn emu_step(
    input: &LadderInput,
    qd: usize,
    flags: bool,
    seed: u64,
    attach: impl Fn(&mut Emulator),
) -> EmuStep {
    let mut ssd = device(input.cfg, input.policy, flags, seed);
    attach(&mut ssd);
    ssd.run_scheduled(&input.prefill, qd);
    let before = ssd.result();
    let t = Instant::now();
    let run = ssd.run_scheduled(&input.ops, qd);
    ssd.flush_coalesced_locks();
    let wall_s = t.elapsed().as_secs_f64();
    let mut lat_ns: Vec<u64> =
        run.completions.iter().zip(&run.submits).map(|(c, s)| c.0 - s.0).collect();
    lat_ns.sort_unstable();
    EmuStep {
        wall_s,
        digest: workloads::results_digest(workloads::DIGEST_SEED, &run.results),
        result: ssd.result().since(&before),
        max_outstanding: run.max_outstanding,
        lat_ns,
        ssd,
    }
}

/// The same requests through the serialized `write` / `read` / `trim`
/// family: wall seconds, results digest and simulated time.
fn serial_step(input: &LadderInput) -> (f64, u64, Nanos) {
    let mut ssd = Emulator::new(input.cfg, input.policy);
    ssd.run_scheduled(&input.prefill, 1);
    let before = ssd.device().simulated_time();
    let mut results = Vec::with_capacity(input.ops.len());
    let t = Instant::now();
    for op in &input.ops {
        results.push(match *op {
            HostOp::Write { lpa, npages, secure } => {
                OpResult::Write(ssd.write(lpa, npages, secure), true)
            }
            HostOp::Read { lpa, npages } => OpResult::Read(ssd.read(lpa, npages)),
            HostOp::Trim { lpa, npages } => {
                OpResult::Trim(ssd.trim_with(&mut NullObserver, lpa, npages))
            }
        });
    }
    ssd.flush_coalesced_locks();
    (
        t.elapsed().as_secs_f64(),
        workloads::results_digest(workloads::DIGEST_SEED, &results),
        ssd.device().simulated_time().saturating_sub(before),
    )
}

/// Runs the ladder for one workload and writes the chrome trace of its
/// L1 step to `trace_path`.
fn ladder(workload: &str, seed: u64, trace_path: &std::path::Path, m: &mut Metrics) -> (u64, u64) {
    let input = ladder_input(workload, seed);
    let requests = input.ops.len() as f64;
    let host_pages = crate::traces::pages(&input.ops) as f64;
    let geom = input.cfg.ftl.geometry;
    let n_chips = input.cfg.n_chips();

    // The steps run round-robin, one repetition each per round, so slow
    // drift of the sandbox's speed lands on every step alike; each step's
    // wall is its median over the rounds. Outcomes are exact, so the last
    // round's stand for all.
    let mut walls: [Vec<f64>; 8] = Default::default();
    let mut last = None;
    for _ in 0..REPS {
        let l0 = ftl_step(&input, MemExecutor::new(geom, n_chips), no_begin, no_end);
        let l1 = ftl_step(&input, TimedExecutor::new(&input.cfg), no_begin, no_end);
        let l0_traced = ftl_step(
            &input,
            SpanExecutor::new(MemExecutor::new(geom, n_chips)),
            SpanExecutor::begin_request,
            SpanExecutor::end_request,
        );
        let l1_traced = ftl_step(
            &input,
            SpanExecutor::new(TimedExecutor::new(&input.cfg)),
            SpanExecutor::begin_request,
            SpanExecutor::end_request,
        );
        let l2 = emu_step(&input, 1, false, seed, |_| {});
        let l3 = emu_step(&input, input.qd, false, seed, |_| {});
        let l4 = emu_step(&input, input.qd, true, seed, |_| {});
        let serial = serial_step(&input);
        let round = [
            l0.wall_s,
            l1.wall_s,
            l0_traced.wall_s,
            l1_traced.wall_s,
            l2.wall_s,
            l3.wall_s,
            l4.wall_s,
            serial.0,
        ];
        walls.iter_mut().zip(round).for_each(|(w, r)| w.push(r));
        last = Some((l0, l1, l0_traced, l1_traced, l2, l3, l4, serial));
    }
    let (l0, l1, l0_traced, l1_traced, l2, l3, l4, (_, serial_digest, serial_sim)) =
        last.expect("at least one round");
    let [l0_s, l1_s, _, l1_traced_s, l2_s, l3_s, l4_s, serial_s] = walls.map(|w| median(&w));

    let digest = l0.digest;
    for (step, d) in [
        ("L1", l1.digest),
        ("L0 traced", l0_traced.digest),
        ("L1 traced", l1_traced.digest),
        ("L2", l2.digest),
        ("L3", l3.digest),
        ("L4", l4.digest),
        ("serial", serial_digest),
    ] {
        assert_eq!(d, digest, "ladder step {step} disagrees with L0 on host-visible results");
    }
    assert_eq!(l0.stats, l1.stats, "L0 and L1 ran different FTL work");
    assert_eq!(l1.stats, l2.result.ftl, "L1 and L2 ran different FTL work");

    let ms = |s: f64| s * 1e3;
    m.insert("ladder.l0_ftl_mem_ms", ms(l0_s));
    m.insert("ladder.l1_ftl_timed_ms", ms(l1_s));
    m.insert("ladder.l2_emulator_qd1_ms", ms(l2_s));
    m.insert("ladder.l3_emulator_qd_ms", ms(l3_s));
    m.insert("ladder.l4_flags_ms", ms(l4_s));
    m.insert("ladder.requests", requests);
    m.insert("ladder.results_digest_lo32", f64::from(digest as u32));

    // ftl: self time from spans, work per host page from its counters.
    let s = l0.stats;
    let nand_ops =
        (s.nand_programs + s.nand_reads + s.nand_erases + s.plocks + s.blocks_locked + s.scrubs)
            as f64;
    let (request_ns, child_ns) = l0_traced.ex.tracer.request_and_child_ns();
    m.insert("ftl.self_ns_per_host_page", (request_ns - child_ns) as f64 / host_pages);
    m.insert("ftl.nand_ops_per_host_page", nand_ops / host_pages);
    let host_writes = s.host_write_pages.max(1) as f64;
    m.insert("ftl.gc_copied_per_host_write", s.copied_pages as f64 / host_writes);
    m.insert("ftl.lock_cmds_per_host_write", s.total_lock_commands() as f64 / host_writes);
    let deferred = s.coalesced_plocks + s.coalesce_flushed_plocks;
    m.insert("ftl.coalesced_plock_share", s.coalesced_plocks as f64 / deferred.max(1) as f64);

    // ssd: each layer is the step that added it minus the step below.
    m.insert("ssd.exec.ns_per_nand_op", (l1_s - l0_s) * 1e9 / nand_ops);
    m.insert("ssd.emulator.ns_per_request", (l2_s - l1_s) * 1e9 / requests);
    m.insert("ssd.emulator.serial_ns_per_request", (serial_s - l1_s) * 1e9 / requests);
    m.insert(
        "ssd.emulator.serial_vs_qd1_sim_ratio",
        serial_sim.0 as f64 / l2.result.sim_time.0 as f64,
    );
    m.insert("ssd.sched.depth_cost_ratio", l3_s / l2_s);
    m.insert("core.flags_wall_share", 1.0 - l3_s / l4_s);
    m.insert("core.lock_cmds", (l4.result.plocks + l4.result.blocks_locked) as f64);
    let l4_ops = l4.result.ftl;
    let l4_nand_ops = l4_ops.nand_programs
        + l4_ops.nand_reads
        + l4_ops.nand_erases
        + l4_ops.total_lock_commands()
        + l4_ops.scrubs;
    m.insert("ssd.host_ns_per_nand_op", l4_s * 1e9 / l4_nand_ops as f64);

    // The modelled SSD at L4.
    let dev = l4.ssd.device();
    let sim_ns = dev.simulated_time().0 as f64;
    let mean_util = |v: Vec<Nanos>| v.iter().map(|n| n.0 as f64).sum::<f64>() / v.len() as f64;
    m.insert("sim.chip_util_mean", mean_util(dev.chip_utilized()) / sim_ns);
    m.insert("sim.channel_util_mean", mean_util(dev.channel_utilized()) / sim_ns);
    let b = dev.time_breakdown();
    let total = b.total().0.max(1) as f64;
    for (name, v) in [
        ("sim.busy_share.read", b.read),
        ("sim.busy_share.program", b.program),
        ("sim.busy_share.erase", b.erase),
        ("sim.busy_share.plock", b.plock),
        ("sim.busy_share.block", b.block),
        ("sim.busy_share.scrub", b.scrub),
        ("sim.busy_share.xfer", b.xfer),
    ] {
        m.insert(name, v.0 as f64 / total);
    }
    m.insert("sim.max_outstanding", l4.max_outstanding as f64);
    let (p999, _) = crate::stats::nearest_rank(&l4.lat_ns, 999).expect("ladder has the samples");
    m.insert("sim.lat_p999_us", p999 as f64 / 1e3);

    // L5.x: one observer at a time over L4, once each (the expensive ones
    // cost 4–30× a step; a ratio that size needs no median). Observation
    // is timing-neutral by contract, so simulated time and results must
    // not move.
    let mut dropped = 0;
    for (key, attach) in OBSERVERS {
        let mut l5 = emu_step(&input, input.qd, true, seed, |ssd| attach(ssd, seed));
        assert_eq!(l5.digest, digest, "{key}: the observer changed host-visible results");
        assert_eq!(l5.result.sim_time, l4.result.sim_time, "{key}: the observer moved sim time");
        m.insert(key, l5.wall_s / l4_s);
        if let Some(tr) = l5.ssd.trace() {
            assert_eq!(tr.recorded(), tr.traces().count() as u64 + tr.dropped(), "trace ring");
            dropped += tr.dropped();
        }
        l5.ssd.finalize_anatomy();
        if let Some(an) = l5.ssd.anatomy() {
            assert_eq!(an.recorded(), an.rows().count() as u64 + an.dropped(), "anatomy ring");
            dropped += an.dropped();
            let total_of = |stage| {
                [ReqKind::Write, ReqKind::Read, ReqKind::Trim]
                    .iter()
                    .map(|&k| an.stage_total(k, stage).0)
                    .sum::<u64>() as f64
            };
            let e2e: f64 = Stage::ALL.iter().map(|&s| total_of(s)).sum();
            m.insert("sim.anatomy.dispatch_stall_share", total_of(Stage::DispatchStall) / e2e);
            m.insert(
                "sim.anatomy.sanitize_interference_share",
                total_of(Stage::SanitizeInterference) / e2e,
            );
        }
    }
    m.insert("ssd.obs.dropped_records", dropped as f64);

    // Checkpoint of L4's end state.
    let bytes = l4.ssd.save_checkpoint();
    let mib = bytes.len() as f64 / (1 << 20) as f64;
    let save = median_secs(|| drop(black_box(l4.ssd.save_checkpoint())));
    let restore = median_secs(|| {
        black_box(Emulator::restore_checkpoint(&bytes).expect("own checkpoint restores"));
    });
    m.insert("ssd.checkpoint.save_mib_per_s", mib / save);
    m.insert("ssd.checkpoint.restore_mib_per_s", mib / restore);
    m.insert("ssd.checkpoint.bytes", bytes.len() as f64);

    // The tracer: its cost on the step it wraps, and its output.
    m.insert("trace.overhead_ratio", l1_traced_s / l1_s);
    m.insert("trace.spans", l1_traced.ex.tracer.spans.len() as f64);
    let json = l1_traced.ex.tracer.to_chrome_json(EXPORTED_SPANS);
    evanesco_ssd::validate_chrome_trace(&json, CHROME_SCHEMA).expect("chrome trace validates");
    std::fs::create_dir_all(trace_path.parent().expect("trace path has a directory"))
        .and_then(|()| std::fs::write(trace_path, json))
        .expect("write the chrome trace");

    // Correctness from outside, on the L4 configuration.
    let mut ssd = device(input.cfg, input.policy, true, seed);
    let mut shadow = Shadow::new(ssd.logical_pages());
    let prefill = ssd.run_scheduled(&input.prefill, input.qd);
    workloads::check_results(&mut shadow, &input.prefill, &prefill);
    let run = ssd.run_scheduled(&input.ops, input.qd);
    workloads::check_results(&mut shadow, &input.ops, &run);
    assert_eq!(
        workloads::results_digest(workloads::DIGEST_SEED, &run.results),
        digest,
        "the oracle pass disagrees with the ladder"
    );
    let leaks = workloads::leak_sweep(&mut ssd, &shadow);
    m.insert("ops_failed_share", shadow.failed as f64 / shadow.attempted as f64);
    m.insert("sanitize_leak_pages", leaks as f64);
    (shadow.attempted, shadow.failed + leaks)
}

// ---------------------------------------------------------------------
// Direct timing of public functions
// ---------------------------------------------------------------------

/// Median wall seconds of [`DIRECT_REPS`] calls.
fn median_secs(mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..DIRECT_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// Per-index median over [`DIRECT_REPS`] calls of `f`, which returns
/// seconds.
fn median_each<const N: usize>(mut f: impl FnMut() -> [f64; N]) -> [f64; N] {
    let runs: Vec<[f64; N]> = (0..DIRECT_REPS).map(|_| f()).collect();
    std::array::from_fn(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// `nand.*` and the directly timed `core.*`: the Gaussian draw and the chip
/// commands, one chip, no FTL.
fn chip_layers(seed: u64, m: &mut Metrics) {
    const DRAWS: u32 = 1 << 22;
    let wall = median_secs(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += evanesco_nand::math::sample_normal(&mut rng, 0.0, 1.0);
        }
        black_box(acc);
    });
    m.insert("nand.gauss_ns_per_draw", wall * 1e9 / f64::from(DRAWS));

    let geom = Geometry::paper_tlc_with_blocks(16);
    let pages = geom.pages_per_chip() as f64;
    let all_pages = move || {
        (0..geom.blocks).flat_map(move |b| (0..geom.pages_per_block()).map(move |p| Ppa::new(b, p)))
    };
    let [program, read, erase] = median_each(|| {
        let mut chip = Chip::new(geom);
        let program = timed(|| {
            for (i, ppa) in all_pages().enumerate() {
                chip.program(ppa, PageData::tagged(i as u64)).expect("in-order program");
            }
        });
        let read = timed(|| {
            for ppa in all_pages() {
                black_box(chip.read(ppa).expect("in range"));
            }
        });
        let erase = timed(|| {
            for b in 0..geom.blocks {
                chip.erase(BlockId(b), Nanos(u64::from(b) + 1)).expect("in range");
            }
        });
        [program, read, erase]
    });
    m.insert("nand.chip_program_ns", program * 1e9 / pages);
    m.insert("nand.chip_read_ns", read * 1e9 / pages);
    m.insert("nand.chip_erase_ns", erase * 1e9 / f64::from(geom.blocks));

    // core: the same loops through EvanescoChip with physical flags, plus
    // the lock commands. Half the blocks take pLocks, half one bLock each.
    let half = geom.blocks / 2;
    let locked_pages = f64::from(half * geom.pages_per_block());
    let core_run = |flags: bool| {
        let mut chip = EvanescoChip::new(geom);
        if flags {
            chip.enable_device_flags(PapConfig::paper(), BapConfig::paper(), seed);
        }
        let program = timed(|| {
            for (i, ppa) in all_pages().enumerate() {
                chip.program(ppa, PageData::tagged(i as u64)).expect("in-order program");
            }
        });
        let plock = timed(|| {
            for ppa in all_pages().take_while(|p| p.block.0 < half) {
                chip.p_lock(ppa).expect("programmed page");
            }
        });
        let block = timed(|| {
            for b in half..geom.blocks {
                chip.b_lock(BlockId(b)).expect("in range");
            }
        });
        let read = timed(|| {
            for ppa in all_pages() {
                black_box(chip.read(ppa).expect("in range"));
            }
        });
        let erase = timed(|| {
            for b in 0..geom.blocks {
                chip.erase(BlockId(b), Nanos(u64::from(b) + 1)).expect("in range");
            }
        });
        [program, plock, block, read, erase]
    };
    let [program, plock, block, read, erase] = median_each(|| core_run(true));
    let [_, plock_ideal, ..] = median_each(|| core_run(false));
    m.insert("core.program_ns", program * 1e9 / pages);
    m.insert("core.plock_ns", plock * 1e9 / locked_pages);
    m.insert("core.blocklock_ns", block * 1e9 / f64::from(geom.blocks - half));
    m.insert("core.read_ns", read * 1e9 / pages);
    m.insert("core.erase_flags_ns", erase * 1e9 / f64::from(geom.blocks));
    m.insert("core.plock_idealflags_ns", plock_ideal * 1e9 / locked_pages);
}

/// Host ns per host page of a DBServer trace's measured phase under
/// `policy`, through the serialized path (prefill untimed).
fn policy_ns_per_page(cfg: &SsdConfig, trace: &Trace, policy: SanitizePolicy) -> f64 {
    let walls: Vec<f64> = (0..DIRECT_REPS)
        .map(|_| {
            let mut ssd = Emulator::new(*cfg, policy);
            trace.prefill.iter().for_each(|op| drop(workloads::apply_serialized(&mut ssd, op)));
            timed(|| {
                trace.ops.iter().for_each(|op| drop(workloads::apply_serialized(&mut ssd, op)));
            })
        })
        .collect();
    median(&walls) * 1e9 / crate::traces::pages(&host_ops(&trace.ops)) as f64
}

fn ftl_layer(seed: u64, m: &mut Metrics) {
    let cfg = SsdConfig::scaled(12);
    let logical = cfg.ftl.logical_pages();
    let trace = db_server_trace(&cfg, logical / 2, seed);
    for (key, policy) in [
        ("ftl.policy.none.host_ns_per_page", SanitizePolicy::none()),
        ("ftl.policy.evanesco.host_ns_per_page", SanitizePolicy::evanesco()),
        ("ftl.policy.evanesco_noblock.host_ns_per_page", SanitizePolicy::evanesco_no_block()),
        ("ftl.policy.scrub.host_ns_per_page", SanitizePolicy::scrub()),
    ] {
        m.insert(key, policy_ns_per_page(&cfg, &trace, policy));
    }
    // erSSD relocates a block's live pages for every secure invalidation
    // (WAF in the hundreds), so it gets a far shorter trace.
    let short = db_server_trace(&cfg, 1500, seed);
    m.insert(
        "ftl.policy.erase.host_ns_per_page",
        policy_ns_per_page(&cfg, &short, SanitizePolicy::erase_based()),
    );

    // The chaos guard with injection off: every host op still verifies
    // and reseals the FTL's tables, which is O(table) at this geometry.
    let ops = crate::traces::churn(churn_config().ftl.logical_pages(), 300, seed);
    let run = |guard: bool| {
        median_secs(|| {
            let mut ssd = device(churn_config(), SanitizePolicy::evanesco(), false, seed);
            if guard {
                ssd.enable_chaos(CorruptionConfig::none());
            }
            black_box(ssd.run_scheduled(&ops, 8));
        })
    };
    m.insert("ftl.guard.cost_ratio", run(true) / run(false));
}

/// The scheduler's scoreboard alone: no device, a constant chip hint, and
/// every request completing a fixed time after its earliest start.
fn sched_layer(seed: u64, m: &mut Metrics) {
    let logical = churn_config().ftl.logical_pages();
    let ops = crate::traces::churn(logical, 100_000, seed);
    for (key, qd) in [
        ("ssd.sched.ns_per_request_qd1", 1),
        ("ssd.sched.ns_per_request_qd8", 8),
        ("ssd.sched.ns_per_request_qd32", 32),
    ] {
        let wall = median_secs(|| {
            let mut sched = Scheduler::new(qd, logical);
            let mut next = 0;
            loop {
                while next < ops.len()
                    && sched.try_submit_at(next, ops[next], Nanos::ZERO).expect("in range")
                {
                    next += 1;
                }
                let Some(d) = sched.take_dispatch(|_| Nanos::ZERO) else { break };
                sched.complete(d.earliest + Nanos::from_micros(50));
            }
            black_box(sched.drain());
        });
        m.insert(key, wall * 1e9 / ops.len() as f64);
    }
}

fn workloads_layer(seed: u64, m: &mut Metrics) {
    let logical = SsdConfig::scaled(12).ftl.logical_pages();
    for (key, spec) in [
        ("workloads.generate_ns_per_op.mailserver", WorkloadSpec::mail_server()),
        ("workloads.generate_ns_per_op.dbserver", WorkloadSpec::db_server()),
        ("workloads.generate_ns_per_op.fileserver", WorkloadSpec::file_server()),
        ("workloads.generate_ns_per_op.mobile", WorkloadSpec::mobile()),
    ] {
        let mut n_ops = 0;
        let wall = median_secs(|| {
            let t = generate(&spec, logical, logical / 2, seed);
            n_ops = t.prefill.len() + t.ops.len();
            black_box(t);
        });
        m.insert(key, wall * 1e9 / n_ops as f64);
    }
}

fn fleet_layer(seed: u64, m: &mut Metrics) {
    let small = workloads::FleetStorm { requests_per_device: 24_000 };
    let cfg = small.config(seed, SanitizePolicy::evanesco());
    let window = cfg.namespace_window();
    let total = (cfg.devices * small.requests_per_device) as f64;

    let generate_wall = median_secs(|| {
        black_box(generate_fleet(&cfg.traffic, cfg.devices, window));
    });
    m.insert("workloads.tenants_generate_ns_per_op", generate_wall * 1e9 / total);
    let traces = generate_fleet(&cfg.traffic, cfg.devices, window);
    let admission_wall = median_secs(|| {
        for t in &traces {
            black_box(admission_order(t, &cfg.qos, cfg.mode, cfg.drain_ns_per_page()));
        }
    });
    m.insert("fleet.qos.admission_ns_per_request", admission_wall * 1e9 / total);

    // One shard, two shards, one shard with anatomy: round-robin like the
    // ladder, since the speed-up is a ratio of walls taken seconds apart.
    let variants = [
        FleetConfig { shards: 1, ..cfg.clone() },
        FleetConfig { shards: 2, ..cfg.clone() },
        FleetConfig { shards: 1, anatomy: true, ..cfg.clone() },
    ];
    let mut digests = Vec::new();
    let [one, two, anatomy] = median_each(|| {
        variants.each_ref().map(|v| timed(|| digests.push(run_fleet(v).fleet_digest)))
    });
    m.insert("fleet.wall_s_shards1", one);
    m.insert("fleet.shard_speedup_2", one / two);
    m.insert("fleet.generate_wall_share", generate_wall / one);
    m.insert("fleet.anatomy.cost_ratio", anatomy / one);
    let invariant = digests.iter().all(|&d| d == digests[0]);
    assert!(invariant, "fleet digest depends on shard count or anatomy: {digests:x?}");
    m.insert("fleet.digest_shard_invariant", f64::from(u8::from(invariant)));
}

/// The whole traced pass for one workload. Returns the metrics and the
/// oracle's `(attempted, failed)` from the ladder.
pub fn run(workload: &str, seed: u64, trace_path: &std::path::Path) -> (Metrics, u64, u64) {
    let mut m = Metrics::new();
    let (attempted, failed) = ladder(workload, seed, trace_path, &mut m);
    chip_layers(seed, &mut m);
    ftl_layer(seed, &mut m);
    sched_layer(seed, &mut m);
    workloads_layer(seed, &mut m);
    fleet_layer(seed, &mut m);
    (m, attempted, failed)
}
