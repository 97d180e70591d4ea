//! System-level evaluation (paper §7): Figure 14(a) IOPS, Figure 14(b)
//! WAF, Figure 14(c) IOPS vs secure-data fraction, and the headline
//! numbers quoted in the abstract/§7 text.
//!
//! Every replay behind these figures is independent of the others — one
//! Table-2 trace on a fresh device under one policy — so a figure's
//! replays run on every core ([`run_jobs`]), and the 20-cell matrix that
//! Figure 14(a), Figure 14(b) and the headline numbers all read is
//! computed once per process ([`run_matrix`]).

use crate::scale::Scale;
use evanesco_ftl::SanitizePolicy;
use evanesco_ssd::{Emulator, RunResult};
use evanesco_workloads::generate::generate;
use evanesco_workloads::replay::replay;
use evanesco_workloads::{Trace, WorkloadSpec};
use std::fmt::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The evaluated SSD variants, in the paper's Figure 14 order.
pub fn policies() -> [SanitizePolicy; 4] {
    [
        SanitizePolicy::erase_based(),
        SanitizePolicy::scrub(),
        SanitizePolicy::evanesco_no_block(),
        SanitizePolicy::evanesco(),
    ]
}

/// All measured runs of one workload: the baseline plus each policy.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRuns {
    /// Workload name.
    pub name: &'static str,
    /// The sanitization-free baseline run.
    pub baseline: RunResult,
    /// `(policy, result)` for the four secure variants.
    pub runs: Vec<(SanitizePolicy, RunResult)>,
}

fn trace_for(scale: &Scale, spec: &WorkloadSpec) -> Trace {
    let logical = scale.ssd_config().ftl.logical_pages();
    generate(spec, logical, scale.main_write_pages(logical), scale.seed)
}

fn run_one(scale: &Scale, trace: &Trace, policy: SanitizePolicy) -> RunResult {
    #[cfg(test)]
    tests::REPLAYS.fetch_add(1, Ordering::Relaxed);
    let mut ssd = Emulator::new(scale.ssd_config(), policy);
    replay(&mut ssd, trace)
}

/// Runs `job(i)` for every `i` in `order` (a permutation of `0..n`) on
/// `workers` threads pulling from one shared position in `order`. Result
/// `i` is job `i`'s, whatever the worker count and whichever worker ran it.
fn run_jobs<T: Send>(order: &[usize], workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // Relaxed: the counter hands out positions and publishes nothing; the
    // results reach this thread through `join`.
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = order.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let pull = || {
            let mut done = Vec::new();
            while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                done.push((i, job(i)));
            }
            done
        };
        let handles: Vec<_> = (0..workers.clamp(1, order.len())).map(|_| s.spawn(pull)).collect();
        for h in handles {
            for (i, r) in h.join().expect("a worker panicked in its replay") {
                results[i] = Some(r);
            }
        }
    });
    results.into_iter().map(|r| r.expect("order names every job once")).collect()
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One job per cell of the matrix. Each generates its own trace — 0.4 % of
/// the matrix's CPU time for five generations of each instead of one — so
/// a worker holds one trace and one device and shares nothing. erSSD cells
/// are pulled first: an erase-based replay is the longest by far, and one
/// pulled last would run alone while the other workers idle.
fn compute_matrix(scale: &Scale, workers: usize) -> Vec<WorkloadRuns> {
    let specs = WorkloadSpec::table2();
    let columns: Vec<SanitizePolicy> =
        std::iter::once(SanitizePolicy::none()).chain(policies()).collect();
    let cell = |i: usize| (&specs[i / columns.len()], columns[i % columns.len()]);
    let mut order: Vec<usize> = (0..specs.len() * columns.len()).collect();
    order.sort_by_key(|&i| cell(i).1 != SanitizePolicy::erase_based());
    let results = run_jobs(&order, workers, |i| {
        let (spec, policy) = cell(i);
        run_one(scale, &trace_for(scale, spec), policy)
    });
    specs
        .iter()
        .zip(results.chunks(columns.len()))
        .map(|(spec, row)| WorkloadRuns {
            name: spec.name,
            baseline: row[0],
            runs: policies().into_iter().zip(row[1..].iter().copied()).collect(),
        })
        .collect()
}

/// The last matrix computed in this process, with the scale it is for.
static MATRIX: Mutex<Option<(Scale, Vec<WorkloadRuns>)>> = Mutex::new(None);

/// The full Figure-14 matrix (4 workloads × baseline + 4 policies) at
/// `scale`: computed on the first call, answered from memory while the
/// scale stays the same.
pub fn run_matrix(scale: &Scale) -> Vec<WorkloadRuns> {
    let mut memo = MATRIX.lock().expect("an earlier matrix run panicked");
    match &*memo {
        Some((at, matrix)) if at == scale => matrix.clone(),
        _ => {
            let matrix = compute_matrix(scale, workers());
            *memo = Some((*scale, matrix.clone()));
            matrix
        }
    }
}

fn matrix_table(
    matrix: &[WorkloadRuns],
    metric_name: &str,
    metric: impl Fn(&RunResult, &RunResult) -> f64,
) -> String {
    let mut out = String::new();
    write!(out, "{:<16}", "Workload").unwrap();
    for (p, _) in &matrix[0].runs {
        write!(out, "{:>16}", p.to_string()).unwrap();
    }
    writeln!(out).unwrap();
    for w in matrix {
        write!(out, "{:<16}", w.name).unwrap();
        for (_, r) in &w.runs {
            write!(out, "{:>16.4}", metric(r, &w.baseline)).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(out, "({metric_name} normalized to the no-sanitization baseline = 1.0)").unwrap();
    out
}

/// Figure 14(a): normalized IOPS of the four SSD variants.
pub fn fig14a(scale: &Scale) -> String {
    let matrix = run_matrix(scale);
    let mut out = String::new();
    writeln!(out, "== Figure 14(a): IOPS of different SSDs (higher is better) ==").unwrap();
    out += &matrix_table(&matrix, "IOPS", |r, b| r.iops_vs(b));
    writeln!(
        out,
        "paper shape: erSSD collapses (<4% of baseline); scrSSD ~ a third; secSSD ~95%;\n\
         secSSD beats secSSD_nobLock most under large-write workloads."
    )
    .unwrap();
    out
}

/// Figure 14(b): normalized WAF of the four SSD variants.
pub fn fig14b(scale: &Scale) -> String {
    let matrix = run_matrix(scale);
    let mut out = String::new();
    writeln!(out, "== Figure 14(b): WAF of different SSDs (lower is better) ==").unwrap();
    out += &matrix_table(&matrix, "WAF", |r, b| r.waf_vs(b));
    writeln!(
        out,
        "paper shape: erSSD amplifies writes by orders of magnitude; scrSSD by a few x;\n\
         secSSD is essentially at baseline."
    )
    .unwrap();
    out
}

/// Secure-data fractions swept by Figure 14(c).
const FRACTIONS: [f64; 5] = [0.6, 0.7, 0.8, 0.9, 1.0];

/// Figure 14(c)'s replays: per workload, per fraction, `[baseline, secSSD]`
/// on the same trace. One job per pair: the figure plots their ratio.
fn fig14c_runs(scale: &Scale, workers: usize) -> Vec<[RunResult; 2]> {
    let specs: Vec<WorkloadSpec> = WorkloadSpec::table2()
        .iter()
        .flat_map(|spec| FRACTIONS.map(|f| spec.with_secure_fraction(f)))
        .collect();
    let order: Vec<usize> = (0..specs.len()).collect();
    run_jobs(&order, workers, |i| {
        let trace = trace_for(scale, &specs[i]);
        [SanitizePolicy::none(), SanitizePolicy::evanesco()].map(|p| run_one(scale, &trace, p))
    })
}

/// Figure 14(c): secSSD IOPS (normalized to baseline) vs fraction of
/// securely-managed data.
pub fn fig14c(scale: &Scale) -> String {
    let mut pairs = fig14c_runs(scale, workers()).into_iter();
    let mut out = String::new();
    writeln!(out, "== Figure 14(c): IOPS vs secure data fraction (secSSD) ==").unwrap();
    write!(out, "{:<16}", "Workload").unwrap();
    for f in FRACTIONS {
        write!(out, "{:>10}", format!("{:.0}%", f * 100.0)).unwrap();
    }
    writeln!(out).unwrap();
    for spec in WorkloadSpec::table2() {
        write!(out, "{:<16}", spec.name).unwrap();
        for [base, sec] in pairs.by_ref().take(FRACTIONS.len()) {
            write!(out, "{:>10.4}", sec.iops_vs(&base)).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(
        out,
        "paper shape: fewer secured pages -> closer to baseline; at 60% secured the\n\
         slowdown is small (<~6%), with DBServer the most affected."
    )
    .unwrap();
    out
}

/// The headline comparisons quoted in the paper's abstract and §7 text.
pub fn headline(scale: &Scale) -> String {
    let matrix = run_matrix(scale);
    let get = |w: &WorkloadRuns, want: SanitizePolicy| {
        w.runs.iter().find(|(p, _)| *p == want).map(|(_, r)| *r).expect("policy in matrix")
    };
    let mut out = String::new();
    writeln!(out, "== Headline comparisons (secSSD vs reprogram-based scrSSD) ==").unwrap();
    writeln!(
        out,
        "{:<14} {:>12} {:>14} {:>16} {:>14}",
        "Workload", "IOPS gain", "erase cut[%]", "pLock cut[%]", "vs baseline"
    )
    .unwrap();
    let mut gains = Vec::new();
    let mut erase_cuts = Vec::new();
    let mut plock_cuts = Vec::new();
    let mut vs_base = Vec::new();
    for w in &matrix {
        let sec = get(w, SanitizePolicy::evanesco());
        let scr = get(w, SanitizePolicy::scrub());
        let nob = get(w, SanitizePolicy::evanesco_no_block());
        let gain = if scr.iops > 0.0 { sec.iops / scr.iops } else { f64::INFINITY };
        let erase_cut = if scr.erases > 0 {
            100.0 * (1.0 - sec.erases as f64 / scr.erases as f64)
        } else {
            0.0
        };
        let plock_cut = if nob.plocks > 0 {
            100.0 * (1.0 - sec.plocks as f64 / nob.plocks as f64)
        } else {
            0.0
        };
        let vb = sec.iops_vs(&w.baseline);
        writeln!(
            out,
            "{:<14} {:>11.2}x {:>14.1} {:>16.1} {:>14.3}",
            w.name, gain, erase_cut, plock_cut, vb
        )
        .unwrap();
        gains.push(gain);
        erase_cuts.push(erase_cut);
        plock_cuts.push(plock_cut);
        vs_base.push(vb);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    writeln!(
        out,
        "\nIOPS gain vs scrSSD: up to {:.1}x, avg {:.1}x   [paper: up to 4.8x, avg 2.9x]",
        max(&gains),
        avg(&gains)
    )
    .unwrap();
    writeln!(
        out,
        "erase reduction vs scrSSD: up to {:.0}%, avg {:.0}%   [paper: up to 79%, avg 62%]",
        max(&erase_cuts),
        avg(&erase_cuts)
    )
    .unwrap();
    writeln!(
        out,
        "pLock reduction from bLock: up to {:.0}%, avg {:.0}%   [paper: up to 57%, avg 28%]",
        max(&plock_cuts),
        avg(&plock_cuts)
    )
    .unwrap();
    writeln!(out, "secSSD IOPS vs baseline: avg {:.1}%   [paper: 94.5%]", 100.0 * avg(&vs_base))
        .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays started by this module, in this process.
    pub(super) static REPLAYS: AtomicUsize = AtomicUsize::new(0);

    /// The memo holds one scale and [`REPLAYS`] is one counter, so the
    /// tests that reach either take turns.
    fn turn() -> std::sync::MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The reference for [`compute_matrix`]: the serial loop it replaced,
    /// one trace per workload shared by the row's five replays.
    fn serial_matrix(scale: &Scale) -> Vec<WorkloadRuns> {
        WorkloadSpec::table2()
            .iter()
            .map(|spec| {
                let trace = trace_for(scale, spec);
                let baseline = run_one(scale, &trace, SanitizePolicy::none());
                let runs = policies().iter().map(|&p| (p, run_one(scale, &trace, p))).collect();
                WorkloadRuns { name: spec.name, baseline, runs }
            })
            .collect()
    }

    /// The reference for [`fig14c_runs`], likewise.
    fn serial_fig14c(scale: &Scale) -> Vec<[RunResult; 2]> {
        let mut out = Vec::new();
        for spec in WorkloadSpec::table2() {
            for f in FRACTIONS {
                let trace = trace_for(scale, &spec.with_secure_fraction(f));
                let base = run_one(scale, &trace, SanitizePolicy::none());
                out.push([base, run_one(scale, &trace, SanitizePolicy::evanesco())]);
            }
        }
        out
    }

    #[test]
    fn parallel_jobs_equal_the_serial_loops_at_any_width() {
        let _turn = turn();
        let scale = Scale::smoke();
        let (matrix, fig14c) = (serial_matrix(&scale), serial_fig14c(&scale));
        assert_eq!((matrix.len(), fig14c.len()), (4, 20));
        for workers in [1, 2, 5] {
            assert_eq!(compute_matrix(&scale, workers), matrix, "{workers} workers");
            assert_eq!(fig14c_runs(&scale, workers), fig14c, "{workers} workers");
        }
    }

    #[test]
    fn the_matrix_figures_replay_each_cell_once_per_scale() {
        let _turn = turn();
        let replays = || REPLAYS.load(Ordering::Relaxed);
        // Seeds no other test uses: nothing is memoized for them yet.
        let scale = Scale { seed: 0x14A, ..Scale::smoke() };
        let other = Scale { seed: 0x14B, ..scale };
        let reference = serial_matrix(&scale);
        let start = replays();
        let figures = [fig14a(&scale), fig14b(&scale), headline(&scale)];
        assert_eq!(replays() - start, 20, "three figures, one 4 x 5 matrix");
        assert_eq!(run_matrix(&scale), reference);
        let elsewhere = run_matrix(&other);
        assert_eq!(replays() - start, 40, "another seed is another matrix");
        assert_ne!(elsewhere, reference);
        assert_eq!(run_matrix(&other), elsewhere);
        assert_eq!(replays() - start, 40, "and is memoized in turn");
        // One entry: the first scale was evicted, and recomputes to the same text.
        assert_eq!(fig14a(&scale), figures[0]);
        assert_eq!(replays() - start, 60);
    }

    #[test]
    fn matrix_orderings_match_paper() {
        let _turn = turn();
        let scale = Scale::smoke();
        let matrix = run_matrix(&scale);
        assert_eq!(matrix.len(), 4);
        for w in &matrix {
            let get = |want: SanitizePolicy| {
                w.runs.iter().find(|(p, _)| *p == want).map(|(_, r)| *r).unwrap()
            };
            let er = get(SanitizePolicy::erase_based());
            let scr = get(SanitizePolicy::scrub());
            let sec = get(SanitizePolicy::evanesco());
            let nob = get(SanitizePolicy::evanesco_no_block());
            assert!(
                sec.iops >= scr.iops && scr.iops >= er.iops,
                "{}: IOPS ordering broken (sec {}, scr {}, er {})",
                w.name,
                sec.iops,
                scr.iops,
                er.iops
            );
            assert!(er.waf >= scr.waf && scr.waf >= sec.waf, "{}: WAF ordering broken", w.name);
            assert!(
                sec.iops >= nob.iops * 0.98,
                "{}: bLock should not hurt IOPS materially",
                w.name
            );
            assert!(
                sec.iops_vs(&w.baseline) > 0.6,
                "{}: secSSD too slow vs baseline: {}",
                w.name,
                sec.iops_vs(&w.baseline)
            );
        }
    }

    #[test]
    fn headline_prints_all_summaries() {
        let _turn = turn();
        let s = headline(&Scale::smoke());
        assert!(s.contains("IOPS gain vs scrSSD"));
        assert!(s.contains("erase reduction"));
        assert!(s.contains("pLock reduction"));
    }
}
