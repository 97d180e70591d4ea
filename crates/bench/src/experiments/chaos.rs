//! The `chaos` experiment: the metadata-corruption storm matrix and its
//! zero-silent-wrong-data gate (`BENCH_chaos.json`).
//!
//! Four legs, all deterministic:
//!
//! 1. **Storm matrix** — low/mid/high corruption rates × ±chip-fault
//!    storm × ±power cut. Cells without a power cut run a **differential
//!    twin**: the same scheduled trace on an uncorrupted device, with
//!    per-request results and a full logical readback compared
//!    afterwards — any mismatch is a *silent wrong data* event and fails
//!    the gate. Power-cut cells cannot be twin-diffed (the cut tears
//!    in-flight state by design), so they gate on post-recovery
//!    contracts instead: acked secure deletes stay attacker-
//!    unrecoverable, the device keeps serving, and the accounting
//!    identity holds.
//! 2. **Queue-depth invariance** — the worst non-cut cell replayed at
//!    qd1 and qd8 must inject identically and serve identically
//!    (results + readback), with the accounting identity holding at
//!    both depths. Repair *cost* counters are exempt: what a repair has
//!    to rebuild depends on the FTL state at the injection boundary,
//!    and dispatch order legitimately differs across queue depths.
//! 3. **Watchdog** — deadline failures are typed and reconcile exactly
//!    (`stalls == aborts == retries + failures`), and a zero-rate
//!    watchdog is byte-identical to no watchdog at all.
//! 4. **Checkpoint salvage sweep** — single-byte flips over a valid
//!    checkpoint must yield a typed error or a consistent salvage,
//!    never a silently wrong restore.
//!
//! Every identity the gate checks is also exported per cell in the JSON
//! artifact, so CI uploads carry the full evidence, not just a verdict.

use crate::scale::Scale;
use evanesco_core::fault::CorruptionConfig;
use evanesco_ftl::config::FaultConfig;
use evanesco_ftl::observer::NullObserver;
use evanesco_ftl::SanitizePolicy;
use evanesco_nand::timing::Nanos;
use evanesco_ssd::emulator::Emulator;
use evanesco_ssd::jsonlite::{Obj, Value};
use evanesco_ssd::sched::OpResult;
use evanesco_ssd::watchdog::DeadlineConfig;
use std::collections::HashSet;

use super::scheduler::{mixed_trace, sched_config};

/// Corruption rates (per op boundary) for the low/mid/high storm rows.
pub const RATES: [f64; 3] = [0.05, 0.15, 0.4];

/// Queue depth the twin-diff cells run at.
pub const CELL_QD: usize = 4;

/// Chip-fault axis: pLock / erase command-failure probabilities dialed
/// in when a cell runs with a concurrent chip fault storm. Every failed
/// erase retires its block for good, and the high-rate corruption cells
/// drive thousands of repair-scan erases, so this is kept low enough
/// (together with the widened spare pool below) that grown-bad
/// retirement cannot exhaust a chip mid-cell.
pub const CHIP_FAULT_RATE: f64 = 0.02;

/// Over-provisioning for chaos devices: wider than the scheduler
/// experiments' 12.5 % so the ±chip-fault axis has block-retirement
/// headroom across the whole storm matrix.
pub const CHAOS_OP_RATIO: f64 = 0.25;

/// One cell of the storm matrix.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Corruption rate per op boundary.
    pub rate: f64,
    /// Whether a chip fault storm ran concurrently.
    pub chip_faults: bool,
    /// Whether a power cut interrupted the run.
    pub power_cut: bool,
    /// Corruptions injected (model view == FtlStats view, checked).
    pub injected: u64,
    /// Corruptions detected by seals or the audit scrubber.
    pub detected: u64,
    /// Repairs rebuilt from on-flash OOB.
    pub from_oob: u64,
    /// Repairs re-derived from RAM.
    pub rederived: u64,
    /// Failed repairs (degraded to read-only).
    pub unrecoverable: u64,
    /// Insecurely trimmed mappings a repair resurrected and the guard
    /// pruned before they could serve.
    pub resurrections_pruned: u64,
    /// Audit-scrubber divergences (should stay 0: seals catch first).
    pub audit_divergences: u64,
    /// Twin-diff mismatches (results or readback) — the gate's silent
    /// wrong-data count. Power-cut cells count post-recovery contract
    /// violations here instead.
    pub silent_wrong_data: u64,
    /// injected == detected == from_oob + rederived + unrecoverable,
    /// and the injector's own count agrees with FtlStats.
    pub accounting_ok: bool,
}

/// Watchdog leg results.
#[derive(Debug, Clone)]
pub struct WatchdogLeg {
    /// Stalls injected at the gate rate.
    pub stalls_injected: u64,
    /// Attempts aborted at their deadline.
    pub aborts: u64,
    /// Aborted attempts retried.
    pub retries: u64,
    /// Requests failed by deadline.
    pub deadline_failures: u64,
    /// `TimedOut` results observed (must equal `deadline_failures`).
    pub timed_out_results: u64,
    /// stalls == aborts == retries + failures.
    pub reconciles: bool,
    /// qd1 and qd8 produced identical results and stats.
    pub qd_invariant: bool,
    /// A zero-rate watchdog left results and sim time byte-identical.
    pub timing_neutral: bool,
}

/// Checkpoint salvage-sweep leg results.
#[derive(Debug, Clone)]
pub struct SalvageLeg {
    /// Byte positions flipped.
    pub flips: u64,
    /// Flips answered by a typed strict-restore error.
    pub typed_errors: u64,
    /// Flips answered by a successful, consistent salvage.
    pub salvages: u64,
    /// Flips that produced neither (silent wrong restore) — gate fails
    /// unless 0.
    pub violations: u64,
}

/// The full chaos report.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scale label.
    pub scale_name: String,
    /// Requests per twin-diff cell.
    pub requests: usize,
    /// The storm matrix.
    pub cells: Vec<ChaosCell>,
    /// The worst non-cut cell replayed at qd1 vs qd8 matched exactly.
    pub qd_invariant: bool,
    /// Watchdog leg.
    pub watchdog: WatchdogLeg,
    /// Checkpoint salvage sweep.
    pub salvage: SalvageLeg,
}

fn device(scale: &Scale, chip_faults: bool) -> Emulator {
    let mut cfg = sched_config(scale);
    cfg.ftl.op_ratio = CHAOS_OP_RATIO;
    if chip_faults {
        cfg.ftl.faults = FaultConfig {
            plock_fail: CHIP_FAULT_RATE,
            erase_fail: CHIP_FAULT_RATE,
            seed: scale.seed ^ 0xC407,
            ..FaultConfig::none()
        };
    }
    Emulator::new(cfg, SanitizePolicy::evanesco())
}

fn storm_seed(scale: &Scale, rate: f64, chip_faults: bool) -> u64 {
    scale.seed ^ (rate.to_bits().rotate_left(17)) ^ u64::from(chip_faults) << 7
}

/// Reads back every logical page in chunks; returns the flat tag view.
fn readback(ssd: &mut Emulator) -> Vec<Option<u64>> {
    let logical = ssd.logical_pages();
    let mut out = Vec::with_capacity(logical as usize);
    let mut l = 0u64;
    while l < logical {
        let n = 64.min(logical - l);
        out.extend(ssd.read(l, n));
        l += n;
    }
    out
}

fn cell_from_stats(ssd: &Emulator, rate: f64, chip_faults: bool, power_cut: bool) -> ChaosCell {
    let f = ssd.ftl().stats();
    let model = ssd.chaos_stats().expect("chaos armed");
    ChaosCell {
        rate,
        chip_faults,
        power_cut,
        injected: f.meta_corruptions_injected,
        detected: f.meta_corruptions_detected,
        from_oob: f.meta_repairs_from_oob,
        rederived: f.meta_repairs_rederived,
        unrecoverable: f.meta_unrecoverable,
        resurrections_pruned: f.meta_resurrections_pruned,
        audit_divergences: f.audit_divergences,
        silent_wrong_data: 0,
        accounting_ok: f.meta_accounting_balanced()
            && model.injected == f.meta_corruptions_injected,
    }
}

/// One twin-diff cell: the same trace on an armed device and a plain
/// one; count every per-request or readback mismatch.
fn run_twin_cell(scale: &Scale, requests: usize, rate: f64, chip_faults: bool) -> ChaosCell {
    let mut plain = device(scale, chip_faults);
    let mut noisy = device(scale, chip_faults);
    noisy.enable_chaos(CorruptionConfig::storm(rate, storm_seed(scale, rate, chip_faults)));
    let ops = mixed_trace(plain.logical_pages(), requests, scale.seed ^ 0xCE11);
    let ra = plain.run_scheduled(&ops, CELL_QD);
    let rb = noisy.run_scheduled(&ops, CELL_QD);
    let mut silent =
        ra.results.iter().zip(rb.results.iter()).filter(|(a, b)| a != b).count() as u64;
    silent += readback(&mut plain)
        .iter()
        .zip(readback(&mut noisy).iter())
        .filter(|(a, b)| a != b)
        .count() as u64;
    // The readback itself runs guarded ops (injections keep firing), so
    // the settling pass must come after it for the accounting identity.
    noisy.chaos_finalize();
    let mut cell = cell_from_stats(&noisy, rate, chip_faults, false);
    cell.silent_wrong_data = silent;
    cell
}

/// One power-cut cell: a deterministic direct-path script with a cut in
/// the middle; gates on post-recovery contracts (no twin possible).
fn run_cut_cell(scale: &Scale, rate: f64, chip_faults: bool) -> ChaosCell {
    let mut ssd = device(scale, chip_faults);
    ssd.enable_chaos(CorruptionConfig::storm(rate, storm_seed(scale, rate, chip_faults) ^ 0xCC));
    let logical = ssd.logical_pages();
    let span = logical.min(48);
    // Phase 1 (fully acked before the cut): secure and insecure writes,
    // then secure deletes over the first third of the span.
    let mut dead_secure: HashSet<u64> = HashSet::new();
    let mut live_secure: Vec<(u64, u64)> = Vec::new(); // (lpa, tag)
    let mut x = scale.seed | 1;
    for i in 0..span {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let secure = i % 2 == 0;
        for (tag, acked) in ssd.write_tracked(i, 1, secure) {
            if acked && secure {
                live_secure.push((i, tag));
            }
        }
    }
    for lpa in 0..span / 3 {
        if ssd.trim_with(&mut NullObserver, lpa, 1) {
            // The trim ack covers every tag previously written there.
            dead_secure.extend(live_secure.iter().filter(|&&(l, _)| l == lpa).map(|&(_, t)| t));
        }
    }
    // Arm the cut a hair into phase 2, then write until the lights go out.
    let now = ssd.device().simulated_time();
    ssd.power_cut_at(now + Nanos::from_micros(200));
    let mut spins = 0u32;
    while !ssd.powered_off() && spins < 10_000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let _ = ssd.write_tracked(span / 3 + x % (span / 2), 1, x.is_multiple_of(3));
        spins += 1;
    }
    let mut violations = 0u64;
    if !ssd.powered_off() {
        violations += 1; // the cut never landed: the cell measured nothing
    }
    let _ = ssd.recover();
    // Contract 1: no acked secure delete is attacker-recoverable.
    let recoverable = ssd.attacker_recoverable_tags();
    violations += dead_secure.intersection(&recoverable).count() as u64;
    // Contract 2: the device still serves after corruption + cut.
    if !ssd.write_tracked(0, 1, true)[0].1 {
        violations += 1;
    }
    ssd.chaos_finalize();
    let mut cell = cell_from_stats(&ssd, rate, chip_faults, true);
    cell.silent_wrong_data = violations;
    cell
}

/// The worst non-cut cell at qd1 vs qd8. The host-visible contract must
/// match exactly: per-request results, the full readback, and the number
/// of injections drawn (the draw stream is keyed on the op-boundary
/// ordinal alone). Device-work counters are *not* compared — a repair's
/// cost depends on the FTL state at the injection boundary, and dispatch
/// order legitimately differs across queue depths — but the accounting
/// identity must hold at both depths.
fn run_qd_invariance(scale: &Scale, requests: usize) -> bool {
    let rate = RATES[RATES.len() - 1];
    let run = |qd: usize| {
        let mut ssd = device(scale, true);
        ssd.enable_chaos(CorruptionConfig::storm(rate, storm_seed(scale, rate, true)));
        let ops = mixed_trace(ssd.logical_pages(), requests, scale.seed ^ 0xCE11);
        let r = ssd.run_scheduled(&ops, qd);
        let rb = readback(&mut ssd);
        ssd.chaos_finalize();
        let f = ssd.ftl().stats();
        let balanced = f.meta_accounting_balanced()
            && ssd.chaos_stats().expect("chaos armed").injected == f.meta_corruptions_injected;
        (r.results, rb, f.meta_corruptions_injected, balanced)
    };
    let (res1, rb1, inj1, ok1) = run(1);
    let (res8, rb8, inj8, ok8) = run(8);
    res1 == res8 && rb1 == rb8 && inj1 == inj8 && ok1 && ok8
}

fn run_watchdog_leg(scale: &Scale, requests: usize) -> WatchdogLeg {
    let ops = mixed_trace(device(scale, false).logical_pages(), requests, scale.seed ^ 0x0DD);
    // Timing neutrality: a zero-rate watchdog changes nothing.
    let bare = {
        let mut ssd = device(scale, false);
        ssd.run_scheduled(&ops, 8)
    };
    let zeroed = {
        let mut ssd = device(scale, false);
        ssd.enable_watchdog(DeadlineConfig::for_tests(scale.seed, 0.0));
        ssd.run_scheduled(&ops, 8)
    };
    let timing_neutral = bare.results == zeroed.results && bare.sim_time == zeroed.sim_time;
    // Failure accounting at a rate that exercises retries and failures.
    let run = |qd: usize| {
        let mut ssd = device(scale, false);
        ssd.enable_watchdog(DeadlineConfig::for_tests(scale.seed ^ 0xF00D, 0.3));
        let r = ssd.run_scheduled(&ops, qd);
        (r.results, ssd.watchdog_stats().expect("watchdog armed"))
    };
    let (res1, st1) = run(1);
    let (res8, st8) = run(8);
    let timed_out = res8.iter().filter(|r| matches!(r, OpResult::TimedOut)).count() as u64;
    WatchdogLeg {
        stalls_injected: st8.stalls_injected,
        aborts: st8.aborts,
        retries: st8.retries,
        deadline_failures: st8.deadline_failures,
        timed_out_results: timed_out,
        reconciles: st8.reconciles() && st8.deadline_failures == timed_out,
        qd_invariant: res1 == res8 && st1 == st8,
        timing_neutral,
    }
}

/// Single-byte-flip sweep over a freshly written checkpoint: every flip
/// must be answered by a typed strict error or a consistent salvage.
fn run_salvage_sweep(scale: &Scale) -> SalvageLeg {
    let mut ssd = device(scale, false);
    let ops = mixed_trace(ssd.logical_pages(), 200, scale.seed ^ 0x5A17);
    let _ = ssd.run_scheduled(&ops, 4);
    let bytes = ssd.save_checkpoint();
    let stride = (bytes.len() / 96).max(1);
    let mut leg = SalvageLeg { flips: 0, typed_errors: 0, salvages: 0, violations: 0 };
    for pos in (0..bytes.len()).step_by(stride) {
        leg.flips += 1;
        let mut dam = bytes.clone();
        dam[pos] ^= 0x40;
        // The strict path must reject every flip with a typed error.
        if Emulator::restore_checkpoint(&dam).is_ok() {
            leg.violations += 1;
            continue;
        }
        leg.typed_errors += 1;
        // The salvaging path may additionally rescue optional sections.
        if let Ok((mut rec, report)) = Emulator::restore_checkpoint_salvaging(&dam) {
            if report.is_clean() || rec.write_tracked(0, 1, true).is_empty() {
                leg.violations += 1; // a salvage must be reported and serve
            } else {
                leg.salvages += 1;
            }
        }
    }
    leg
}

/// Runs the whole suite.
pub fn run(scale: &Scale, scale_name: &str) -> ChaosReport {
    let logical = device(scale, false).logical_pages();
    let requests = ((logical / 2) as usize).clamp(256, 2_000);
    let mut cells = Vec::new();
    for &rate in &RATES {
        for chip_faults in [false, true] {
            cells.push(run_twin_cell(scale, requests, rate, chip_faults));
            cells.push(run_cut_cell(scale, rate, chip_faults));
        }
    }
    ChaosReport {
        scale_name: scale_name.to_string(),
        requests,
        cells,
        qd_invariant: run_qd_invariance(scale, requests),
        watchdog: run_watchdog_leg(scale, requests),
        salvage: run_salvage_sweep(scale),
    }
}

impl ChaosReport {
    /// Every gate breach, empty when the matrix is green: silent wrong
    /// data anywhere, a broken accounting identity, a storm that never
    /// fired, qd variance, a watchdog identity breach, or a salvage
    /// violation.
    pub fn violations(&self) -> Vec<String> {
        let mut out = self.doc(false).non_finite();
        for c in &self.cells {
            let tag = format!(
                "cell rate={} chip_faults={} power_cut={}",
                c.rate, c.chip_faults, c.power_cut
            );
            if c.silent_wrong_data > 0 {
                out.push(format!("{tag}: {} silent wrong-data events", c.silent_wrong_data));
            }
            if !c.accounting_ok {
                out.push(format!(
                    "{tag}: accounting identity broken (injected {} detected {} oob {} \
                     rederived {} unrecoverable {})",
                    c.injected, c.detected, c.from_oob, c.rederived, c.unrecoverable
                ));
            }
            if c.injected == 0 {
                out.push(format!("{tag}: storm never fired"));
            }
        }
        if !self.qd_invariant {
            out.push("qd1 and qd8 storm runs diverged".into());
        }
        let w = &self.watchdog;
        if !w.reconciles {
            out.push(format!(
                "watchdog identity broken: stalls {} aborts {} retries {} failures {} timed_out {}",
                w.stalls_injected, w.aborts, w.retries, w.deadline_failures, w.timed_out_results
            ));
        }
        if !w.qd_invariant {
            out.push("watchdog verdicts varied with queue depth".into());
        }
        if !w.timing_neutral {
            out.push("zero-rate watchdog was not timing-neutral".into());
        }
        if w.deadline_failures == 0 {
            out.push("watchdog leg injected no deadline failures".into());
        }
        if self.salvage.violations > 0 {
            out.push(format!(
                "salvage sweep: {} of {} flips restored silently wrong",
                self.salvage.violations, self.salvage.flips
            ));
        }
        out
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("== Chaos: metadata-corruption storm matrix ==\n");
        s.push_str(&format!("scale={}, requests/cell={}\n", self.scale_name, self.requests));
        s.push_str(
            " rate | chip | cut | inject | detect |  oob | rederive | unrec | pruned | silent\n",
        );
        s.push_str(
            "------+------+-----+--------+--------+------+----------+-------+--------+-------\n",
        );
        for c in &self.cells {
            s.push_str(&format!(
                "{:>5.2} | {:>4} | {:>3} | {:>6} | {:>6} | {:>4} | {:>8} | {:>5} | {:>6} | {:>6}\n",
                c.rate,
                if c.chip_faults { "yes" } else { "no" },
                if c.power_cut { "yes" } else { "no" },
                c.injected,
                c.detected,
                c.from_oob,
                c.rederived,
                c.unrecoverable,
                c.resurrections_pruned,
                c.silent_wrong_data,
            ));
        }
        let w = &self.watchdog;
        s.push_str(&format!(
            "qd-invariance: {}\nwatchdog: stalls={} aborts={} retries={} failures={} \
             timed_out={} reconciles={} qd_invariant={} timing_neutral={}\n",
            if self.qd_invariant { "PASS" } else { "FAIL" },
            w.stalls_injected,
            w.aborts,
            w.retries,
            w.deadline_failures,
            w.timed_out_results,
            w.reconciles,
            w.qd_invariant,
            w.timing_neutral,
        ));
        s.push_str(&format!(
            "salvage sweep: {} flips -> {} typed errors, {} salvages, {} violations\n",
            self.salvage.flips,
            self.salvage.typed_errors,
            self.salvage.salvages,
            self.salvage.violations,
        ));
        let v = self.violations();
        s.push_str(&format!(
            "gate: {}\n",
            if v.is_empty() {
                "PASS".to_string()
            } else {
                format!("FAIL ({} violations)", v.len())
            }
        ));
        s
    }

    fn doc(&self, pass: bool) -> Obj {
        let cells = self.cells.iter().map(|c| {
            Obj::new()
                .field("rate", Value::Exact(c.rate))
                .field("chip_faults", c.chip_faults)
                .field("power_cut", c.power_cut)
                .field("injected", c.injected)
                .field("detected", c.detected)
                .field("from_oob", c.from_oob)
                .field("rederived", c.rederived)
                .field("unrecoverable", c.unrecoverable)
                .field("resurrections_pruned", c.resurrections_pruned)
                .field("audit_divergences", c.audit_divergences)
                .field("silent_wrong_data", c.silent_wrong_data)
                .field("accounting_ok", c.accounting_ok)
        });
        let w = &self.watchdog;
        let watchdog = Obj::new()
            .field("stalls_injected", w.stalls_injected)
            .field("aborts", w.aborts)
            .field("retries", w.retries)
            .field("deadline_failures", w.deadline_failures)
            .field("timed_out_results", w.timed_out_results)
            .field("reconciles", w.reconciles)
            .field("qd_invariant", w.qd_invariant)
            .field("timing_neutral", w.timing_neutral);
        let salvage = Obj::new()
            .field("flips", self.salvage.flips)
            .field("typed_errors", self.salvage.typed_errors)
            .field("salvages", self.salvage.salvages)
            .field("violations", self.salvage.violations);
        Obj::new()
            .field("experiment", "chaos")
            .field("scale", &self.scale_name)
            .field("requests", self.requests)
            .field("qd_invariant", self.qd_invariant)
            .field("gate_passes", pass)
            .array("cells", cells)
            .field("watchdog", watchdog)
            .field("salvage", salvage)
    }

    /// Machine-readable JSON (`BENCH_chaos.json`).
    pub fn to_json(&self) -> String {
        self.doc(self.violations().is_empty()).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_is_green() {
        let report = run(&Scale::smoke(), "smoke");
        let v = report.violations();
        assert!(v.is_empty(), "chaos gate violated:\n{}\n{}", v.join("\n"), report.render());
        assert!(report.cells.iter().all(|c| c.injected > 0), "every cell fired");
        assert_eq!(report.cells.len(), RATES.len() * 4);
    }
}
