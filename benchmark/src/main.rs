//! The repo benchmark. See `README.md` for the two clocks, the metric
//! glossary and how the workloads separate the layers.
//!
//! ```text
//! evanesco-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! evanesco-benchmark run   [--seed <n>] [--seconds <s>]   all workloads, end to end
//! evanesco-benchmark trace [--seed <n>]                   all workloads, per layer
//! evanesco-benchmark check <results-a> <results-b>        the agreement test
//! evanesco-benchmark manifest                             print BENCHMARK.json
//! ```

mod calib;
mod layers;
mod oracle;
mod report;
mod spans;
mod stats;
mod traces;
mod workloads;

use report::{Metrics, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Sim, Workload};

/// Seed when none is given. Seed 7 is held out: no size, rate or bound
/// here was chosen by looking at it, so later claims can be checked on it.
const DEFAULT_SEED: u64 = 42;

/// Timed repetitions at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// The benchmark's directory, from where the process runs: the repo root
/// (the driver, `cargo run --manifest-path benchmark/Cargo.toml`) or the
/// directory itself (`run.sh`). Resolved at run time, so a build that is
/// moved never writes outside the checkout it runs in.
fn benchmark_dir() -> PathBuf {
    let nested = Path::new("benchmark");
    if nested.join("Cargo.toml").exists() {
        nested.into()
    } else {
        ".".into()
    }
}

fn out_dir() -> PathBuf {
    benchmark_dir().join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The header every output starts with.
fn header(seed: u64) -> String {
    // The driver's checkout is not a repository; only ask git where one is.
    let root = benchmark_dir().join("..");
    let commit = if root.join(".git").exists() {
        command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    format!(
        "# evanesco benchmark | seed {seed} | nproc {} | {} | commit {commit}",
        std::thread::available_parallelism().map_or(0, usize::from),
        command_line("rustc", &["--version"]),
    )
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Runs one workload end to end: a discarded warm-up repetition, timed
/// repetitions on fresh devices for `seconds`, then the verify pass.
fn end_to_end<W: Workload>(w: &W, seed: u64, seconds: f64) -> (Metrics, u64, u64) {
    let started = Instant::now();
    // Each repetition: set up, run the timed region, then the calibration
    // kernel; the kernel run that closed the previous repetition opens this
    // one. Returns set-up and timed walls at reference speed, and the raw
    // timed wall.
    let mut kernel_s = calib::kernel().0;
    let mut repetition = || {
        let t = Instant::now();
        let prepared = w.prepare(seed);
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sim = w.measure(prepared);
        let wall_s = t.elapsed().as_secs_f64();
        let after_s = calib::kernel().0;
        let slowdown = calib::slowdown(std::mem::replace(&mut kernel_s, after_s), after_s);
        (setup_s / slowdown, wall_s / slowdown, wall_s, sim)
    };
    let (_, _, warm_s, sim) = repetition();
    let (mut setups, mut walls, mut raw_walls) = (Vec::new(), Vec::new(), Vec::new());
    let timed = Instant::now();
    while walls.len() < MIN_REPS || timed.elapsed().as_secs_f64() < seconds {
        let (setup_s, wall_s, raw_s, again): (f64, f64, f64, Sim) = repetition();
        assert_eq!(again, sim, "a repetition's simulated outcome differs from the warm-up's");
        setups.push(setup_s);
        walls.push(wall_s);
        raw_walls.push(raw_s);
    }
    let v = w.verify(seed);
    assert_eq!(v.sim, sim, "the verify pass did not reproduce the timed repetitions bit for bit");

    let mut lat = v.lat_ns;
    let mut trim_lat = v.trim_lat_ns;
    lat.sort_unstable();
    trim_lat.sort_unstable();
    let (p999, beyond) = stats::nearest_rank(&lat, 999).expect("latency samples");
    let (trim_p99, trim_beyond) = stats::nearest_rank(&trim_lat, 990).expect("trim samples");
    let mean_ns = lat.iter().sum::<u64>() as f64 / lat.len() as f64;
    let [wall_q1, wall, wall_q3] = stats::quartiles(&walls);
    let [raw_q1, raw, raw_q3] = stats::quartiles(&raw_walls);
    let [setup_q1, setup, setup_q3] = stats::quartiles(&setups);

    let m = Metrics::from([
        ("host_pages_per_s", sim.host_pages as f64 / wall),
        ("host_peak_rss_mib", peak_rss_mib()),
        ("setup_s", setup),
        ("sim_iops", sim.iops()),
        ("sim_iops_vs_nosan", sim.iops() / v.nosan_iops),
        ("sim_waf", v.nand_programs as f64 / v.host_write_pages as f64),
        ("sim_lat_mean_us", mean_ns / 1e3),
        ("sim_lat_worst1pct_us", stats::worst_mean(&lat, 10) / 1e3),
        ("sim_trim_body_mean_us", stats::body_mean(&trim_lat, 950) / 1e3),
    ]);

    println!(
        "timed repetitions: n {} after 1 discarded warm-up ({warm_s:.3} s); wall per repetition \
         at reference speed: median {wall:.4} s, quartiles {wall_q1:.4} .. {wall_q3:.4}; as the \
         clock read: median {raw:.4} s, quartiles {raw_q1:.4} .. {raw_q3:.4} (machine at {:.2}x \
         the reference kernel time)",
        walls.len(),
        raw / wall
    );
    println!(
        "setup at reference speed: n {} median {setup:.4} s, quartiles {setup_q1:.4} .. \
         {setup_q3:.4}",
        setups.len()
    );
    println!(
        "per repetition: {} host pages in the timed region; measured phase {} pages in {:.6} \
         simulated s",
        sim.host_pages,
        sim.sim_pages,
        sim.sim_ns as f64 / 1e9
    );
    println!(
        "latency: n {}, exact nearest-rank p99.9 {:.1} us ({beyond} samples beyond the rank); \
         trims: n {}, exact p99 {:.1} us ({trim_beyond} beyond)",
        lat.len(),
        p999 as f64 / 1e3,
        trim_lat.len(),
        trim_p99 as f64 / 1e3
    );
    for d in &END_TO_END {
        println!("  {:<22} {:>16.4} {:<8} ({} clock)", d.name, m[d.name], d.unit, d.clock.name());
    }
    let o = v.oracle;
    println!(
        "  ops_failed_share       {:>16.6} ratio    ({} failed of {} attempted host requests)",
        o.failed as f64 / o.attempted as f64,
        o.failed,
        o.attempted
    );
    println!(
        "  sanitize_leak_pages    {:>16} pages    (of {} dead secure tags swept)",
        o.leak_pages, o.dead_secure_tags
    );
    v.notes.iter().for_each(|n| println!("note: {n}"));
    println!("whole run: {:.1} s", started.elapsed().as_secs_f64());
    (m, o.attempted, o.failed + o.leak_pages)
}

/// One workload, one pass: the driver's entry point. Prints the result
/// line last and returns whether the run was correct.
fn run_one(workload: &str, seed: u64, seconds: f64, traced: bool) -> bool {
    println!("{}", header(seed));
    println!("# workload {workload} | {}", if traced { "per-layer pass" } else { "end to end" });
    let (defs, (m, attempted, failed)): (&[report::MetricDef], _) = if traced {
        let path = out_dir().join(format!("spans-{workload}-seed{seed}.json"));
        let r = layers::run(workload, seed, &path);
        for d in &PER_LAYER {
            let (value, clock) = (r.0[d.name], d.clock.name());
            println!("  {:<46} {value:>16.4} {:<6} ({clock} clock)", d.name, d.unit);
        }
        println!("chrome trace of the L1 step's first spans: {}", path.display());
        (&PER_LAYER, r)
    } else {
        let r = match workload {
            "sanitize_churn" => end_to_end(&workloads::SANITIZE_CHURN, seed, seconds),
            "read_deep" => end_to_end(&workloads::READ_DEEP, seed, seconds),
            "table2_policies" => end_to_end(&workloads::Table2, seed, seconds),
            "observed_churn" => end_to_end(&workloads::OBSERVED_CHURN, seed, seconds),
            "fleet_storm" => end_to_end(&workloads::FLEET_STORM, seed, seconds),
            _ => unreachable!("workload names are checked at the command line"),
        };
        (&END_TO_END, r)
    };
    println!("{}", report::result_line(defs, &m, failed == 0, attempted, failed));
    failed == 0
}

/// `run` / `trace`: every workload in a child process of its own, so peak
/// RSS is per workload; result lines are collected into a results file.
fn run_all(traced: bool, seed: u64, seconds: f64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = format!("{}\n", header(seed));
    for name in workloads::NAMES {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("{name} failed ({})", out.status));
        }
        let line = stdout.lines().last().ok_or("no output")?;
        results.push_str(&format!("{name}\t{line}\n"));
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let kind = if traced { "trace" } else { "run" };
    let path = (0..)
        .map(|i| out_dir().join(format!("{kind}-seed{seed}-{i}.tsv")))
        .find(|p| !p.exists())
        .expect("a free file name");
    std::fs::write(&path, results).map_err(|e| e.to_string())?;
    println!("results written to {}", path.display());
    Ok(())
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => {
            args.get(i + 1).and_then(|v| v.parse().ok()).ok_or(format!("{name} needs a value"))
        }
    }
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    let seed = flag(args, "--seed", DEFAULT_SEED)?;
    let seconds = flag(args, "--seconds", report::RUN_SECONDS as f64)?;
    match args.first().map(String::as_str) {
        Some("run") => run_all(false, seed, seconds).map(|()| true),
        Some("trace") => run_all(true, seed, seconds).map(|()| true),
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        Some("check") => {
            let [a, b] = &args[1..] else { return Err("check takes two results files".into()) };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            let (compared, bad) = report::check(&read(a)?, &read(b)?)?;
            bad.iter().for_each(|b| println!("MISMATCH {b}"));
            println!(
                "check {a} against {b}: {compared} values compared (simulated metrics, counts and \
                 digests for bit equality, bounded host metrics against their bound), {} \
                 mismatches",
                bad.len()
            );
            Ok(bad.is_empty())
        }
        _ => {
            let workload: String = flag(args, "--workload", String::new())?;
            if !workloads::NAMES.contains(&workload.as_str()) {
                return Err(format!(
                    "give --workload <one of {:?}>, or run | trace | check | manifest",
                    workloads::NAMES
                ));
            }
            if !(0.0..=3600.0).contains(&seconds) {
                return Err(format!("--seconds {seconds} is not between 0 and 3600"));
            }
            let traced = match flag(args, "--trace", 0u8)? {
                0 => false,
                1 => true,
                other => return Err(format!("--trace takes 0 or 1, not {other}")),
            };
            Ok(run_one(&workload, seed, seconds, traced))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
