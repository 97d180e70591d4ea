//! Runtime fault-injection properties: the reliability manager
//! (`evanesco::ftl`) must absorb probabilistic chip failures — failed
//! `pLock`/`bLock` verifies, program-status failures, erase failures,
//! uncorrectable reads — without ever weakening the sanitization
//! guarantee or changing what the host observes.
//!
//! The contract pinned down here:
//!
//! * **no leak under any fault schedule** — whatever the storm severity
//!   and seed, no superseded or deleted secured version is recoverable by
//!   a raw-chip attacker, including at the paper's weakest flag-program
//!   corner (per-command `pLock` success near 50 %);
//! * **queue-depth invariance with faults on** — the fault model keys
//!   every draw on per-location attempt ordinals, never global dispatch
//!   order, so queue depths 1 and 8 produce byte-identical host results;
//! * **full accounting** — every injected failure shows up in exactly one
//!   FTL response counter (retry, escalation, fallback, remap, or
//!   retirement), across power cuts too;
//! * **crash safety mid-ladder** — a power cut anywhere inside a fault
//!   storm (including mid-escalation) still recovers to a sanitized,
//!   serviceable device, and the grown-bad-block table survives the cut.

use evanesco::core::calibration::DesignPoint;
use evanesco::core::fault::FaultConfig;
use evanesco::ftl::{DegradedMode, SanitizePolicy};
use evanesco::nand::timing::Nanos;
use evanesco::ssd::{Emulator, HostOp, RunResult, SsdConfig};
use proptest::prelude::*;

fn storm_cfg(severity: f64, seed: u64) -> SsdConfig {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.faults = FaultConfig::storm(severity, seed);
    cfg
}

/// Asserts the accounting identities: chip-level injected failures vs the
/// FTL's response counters. Holds across power cuts too: a command the
/// cut tears or loses never draws a fault, and power-up recovery's locks
/// and erases climb the same ladders and count in the same rungs.
fn assert_fault_accounting(r: &RunResult) {
    assert_eq!(
        r.faults.plock_failures,
        r.ftl.plock_retries + r.ftl.plock_escalations + r.ftl.lock_scrub_fallbacks,
        "every failed pLock is a retry, an escalation, or a scrub fallback"
    );
    assert_eq!(
        r.faults.block_lock_failures,
        r.ftl.block_lock_retries + r.ftl.block_lock_fallbacks,
        "every failed bLock is a retry or a per-page fallback"
    );
    assert_eq!(
        r.faults.program_failures, r.ftl.program_fail_remaps,
        "every failed program is remapped exactly once"
    );
    assert_eq!(
        r.faults.erase_failures,
        r.ftl.erase_retries + r.ftl.retired_blocks,
        "every failed erase is a retry or a block retirement"
    );
}

/// Raw op parameters; clamped against the logical space once, so every
/// queue depth replays the exact same trace.
fn sched_op(logical: u64) -> impl Strategy<Value = HostOp> {
    let max_run = 6u64;
    prop_oneof![
        4 => (0..logical - max_run, 1..=max_run, any::<bool>())
            .prop_map(|(lpa, npages, secure)| HostOp::Write { lpa, npages, secure }),
        2 => (0..logical - max_run, 1..=max_run)
            .prop_map(|(lpa, npages)| HostOp::Read { lpa, npages }),
        1 => (0..logical - max_run, 1..=max_run)
            .prop_map(|(lpa, npages)| HostOp::Trim { lpa, npages }),
    ]
}

/// Runs the trace at one queue depth on a fresh faulty device and returns
/// everything the host can observe.
fn observe(
    cfg: SsdConfig,
    ops: &[HostOp],
    qd: usize,
) -> (Vec<evanesco::ssd::OpResult>, Vec<Option<u64>>, bool) {
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    let run = ssd.run_scheduled(ops, qd);
    ssd.flush_coalesced_locks();
    ssd.ftl().check_invariants();
    assert_fault_accounting(&ssd.result());
    let logical = ssd.logical_pages();
    let image = (0..logical).map(|l| ssd.read(l, 1)[0]).collect();
    let sanitized = ssd.verify_sanitized(0, logical);
    (run.results, image, sanitized)
}

/// Deterministic churn driver: overwrites and trims secured data so the
/// storm has plenty of locks, erases, and GC to attack.
fn churn(ssd: &mut Emulator, rounds: u64) {
    churn_rounds(ssd, 0..rounds);
    ssd.flush_coalesced_locks();
}

/// One contiguous slice of the churn schedule (round indices seed the
/// access pattern, so `0..n` split at any point replays identically).
fn churn_rounds(ssd: &mut Emulator, rounds: std::ops::Range<u64>) {
    let logical = ssd.logical_pages();
    let span = logical / 2;
    for round in rounds {
        for l in 0..span {
            let _ = ssd.write_tracked((l * 7 + round) % span, 1, true);
        }
        let base = (round * 13) % (span / 2);
        let _ = ssd.trim_with(&mut evanesco::ftl::observer::NullObserver, base, span / 8);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random fault schedules never leave a secured version recoverable,
    /// and queue depth never changes host-visible results — faults on.
    #[test]
    fn fault_storms_never_leak_and_are_qd_invariant(
        ops in proptest::collection::vec(sched_op(600), 1..80),
        severity in 0.05f64..0.7,
        seed in any::<u64>(),
    ) {
        let cfg = storm_cfg(severity, seed);
        let baseline = observe(cfg, &ops, 1);
        prop_assert!(baseline.2, "secured data leaked at qd 1 (severity {severity})");
        let got = observe(cfg, &ops, 8);
        prop_assert_eq!(&got, &baseline, "qd 8 diverged from qd 1 under faults");
    }

    /// Heavy churn under a storm: every injected failure is accounted for
    /// by exactly one reliability response, and nothing leaks.
    #[test]
    fn reliability_counters_account_for_every_injected_failure(
        severity in 0.05f64..0.9,
        seed in any::<u64>(),
    ) {
        let cfg = storm_cfg(severity, seed);
        let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
        churn(&mut ssd, 3);
        ssd.ftl().check_invariants();
        let r = ssd.result();
        assert_fault_accounting(&r);
        prop_assert!(
            r.faults.command_failures() > 0,
            "storm at severity {severity} must inject something"
        );
        let logical = ssd.logical_pages();
        prop_assert!(ssd.verify_sanitized(0, logical), "leak at severity {severity}");
    }

    /// Fault-stream continuity: the fault model's only mutable state (the
    /// per-location attempt ordinals behind every draw) travels in the
    /// checkpoint, so a storm run that stops and resumes from bytes
    /// injects *exactly* the draws of the uninterrupted run — the
    /// injected-fault vs response accounting identities hold with no
    /// draw double-counted or lost across the boundary.
    #[test]
    fn fault_accounting_survives_a_checkpoint_boundary(
        severity in 0.05f64..0.9,
        seed in any::<u64>(),
    ) {
        let cfg = storm_cfg(severity, seed);
        let mut a = Emulator::new(cfg, SanitizePolicy::evanesco());
        churn_rounds(&mut a, 0..3);

        let mut b = Emulator::new(cfg, SanitizePolicy::evanesco());
        churn_rounds(&mut b, 0..1);
        let bytes = b.save_checkpoint();
        drop(b);
        let mut b = Emulator::restore_checkpoint(&bytes).expect("storm checkpoint restores");
        churn_rounds(&mut b, 1..3);

        let (ra, rb) = (a.result(), b.result());
        prop_assert!(
            ra.faults.command_failures() > 0,
            "storm at severity {severity} must inject something"
        );
        assert_fault_accounting(&ra);
        assert_fault_accounting(&rb);
        prop_assert_eq!(&ra, &rb, "fault draws diverged across the checkpoint boundary");
        prop_assert_eq!(a.prometheus_scrape(), b.prometheus_scrape());
        prop_assert_eq!(a.save_checkpoint(), b.save_checkpoint());
        b.ftl().check_invariants();
    }

    /// A power cut anywhere inside a fault storm — including mid-ladder,
    /// mid-relocation, or mid-retirement — recovers to a device that is
    /// sanitized, consistent, and serves new work, with every injected
    /// failure (recovery's own included) answered by one rung.
    #[test]
    fn power_cut_mid_storm_recovers_sanitized(
        cut_frac in 0.02f64..0.98,
        seed in any::<u64>(),
    ) {
        let cfg = storm_cfg(0.6, seed);

        // Horizon run: measure the undisturbed trace so the cut lands
        // somewhere inside the replay.
        let mut probe = Emulator::new(cfg, SanitizePolicy::evanesco());
        churn(&mut probe, 2);
        let horizon = probe.result().sim_time;
        prop_assert!(horizon > Nanos(2));
        let cut = Nanos(((horizon.0 as f64 * cut_frac) as u64).max(1));

        let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
        ssd.power_cut_at(cut);
        churn(&mut ssd, 2);
        prop_assert!(ssd.powered_off(), "cut at {cut} inside horizon {horizon} must fire");
        let retired_before = ssd.ftl().retired_block_count();
        ssd.recover();
        // The grown-bad-block table is rebuilt from on-flash marks: no
        // retirement recorded before the cut is forgotten.
        prop_assert!(ssd.ftl().retired_block_count() >= retired_before);
        ssd.ftl().check_invariants();
        assert_fault_accounting(&ssd.result());
        let logical = ssd.logical_pages();
        prop_assert!(ssd.verify_sanitized(0, logical), "leak across power cut");
        // The device serves and acknowledges new work after recovery
        // (unless the storm already exhausted the spare reserve).
        if ssd.ftl().degraded() != DegradedMode::ReadOnly {
            let tracked = ssd.write_tracked(0, 1, true);
            prop_assert!(tracked[0].1, "recovered device must ack writes");
        }
        prop_assert_eq!(ssd.read(5, 1).len(), 1);
    }
}

/// The paper's weakest design corner — `(Vp1, 100 µs)`, per-cell flag
/// success 47.3 %, so the k = 9 majority `pLock` fails roughly half the
/// time — must still sanitize everything via the retry/escalation ladder.
#[test]
fn weak_flag_corner_stays_sanitized() {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.faults = FaultConfig::calibrated(DesignPoint::new(1, 100), 0.0, 42);
    assert!(cfg.ftl.faults.plock_fail > 0.4, "corner must be weak");
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    churn(&mut ssd, 2);
    let r = ssd.result();
    assert!(r.ftl.plock_retries > 0, "the ladder must have been exercised: {:?}", r.ftl);
    assert_fault_accounting(&r);
    let logical = ssd.logical_pages();
    assert!(ssd.verify_sanitized(0, logical), "leak at the weak flag corner");
    ssd.ftl().check_invariants();
}

/// Hard erase failures retire blocks into the grown-bad table, degrade
/// the device through `SpareLow` into `ReadOnly`, and keep serving reads.
#[test]
fn erase_failures_degrade_to_read_only_but_reads_survive() {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.faults = FaultConfig { erase_fail: 1.0, seed: 5, ..FaultConfig::none() };
    // Single chip so the retirement sequence is deterministic.
    cfg.ftl.n_chips = 1;
    let mut ssd = Emulator::new(cfg, SanitizePolicy::erase_based());
    let tags = ssd.write(0, 3, true);
    ssd.trim(0, 1); // erase fails, retires the block
    assert_eq!(ssd.ftl().degraded(), DegradedMode::SpareLow);
    ssd.trim(1, 1); // second retirement exhausts the spare reserve
    assert_eq!(ssd.ftl().degraded(), DegradedMode::ReadOnly);
    assert_eq!(ssd.ftl().retired_block_count(), 2);
    let tracked = ssd.write_tracked(5, 1, false);
    assert!(!tracked[0].1, "read-only mode must reject host writes");
    assert_eq!(ssd.read(2, 1)[0], Some(tags[2]), "reads still serve in read-only mode");
    let r = ssd.result();
    assert_eq!(r.ftl.writes_rejected_readonly, 1);
    assert_fault_accounting(&r);
    let logical = ssd.logical_pages();
    assert!(ssd.verify_sanitized(0, logical));
    ssd.ftl().check_invariants();
}

/// The grown-bad-block table survives a power cut: recovery rebuilds it
/// from the spare-area retirement marks, and the degraded mode follows.
#[test]
fn bad_block_table_survives_power_cut() {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.faults = FaultConfig { erase_fail: 1.0, seed: 5, ..FaultConfig::none() };
    let mut ssd = Emulator::new(cfg, SanitizePolicy::erase_based());
    let tags = ssd.write(0, 4, true);
    ssd.trim(0, 1);
    let retired = ssd.ftl().retired_block_count();
    assert!(retired >= 1, "the failed erase must retire a block");
    // Cut power with the table only in RAM and on-flash marks; the next
    // request dies on the powered-off device.
    ssd.power_cut_at(ssd.result().sim_time + Nanos(1));
    let tracked = ssd.write_tracked(9, 1, false);
    assert!(!tracked[0].1);
    assert!(ssd.powered_off());
    let report = ssd.recover();
    assert_eq!(report.retired_blocks, u64::from(retired), "table rebuilt from marks");
    assert_eq!(ssd.ftl().retired_block_count(), retired);
    assert_eq!(ssd.ftl().degraded(), DegradedMode::SpareLow);
    assert_eq!(ssd.result().recovery.report.retired_blocks, u64::from(retired));
    for (i, &t) in tags.iter().enumerate().skip(1) {
        assert_eq!(ssd.read(i as u64, 1)[0], Some(t), "live data survives the cycle");
    }
    ssd.ftl().check_invariants();
}

/// The read-retry ladder recovers data, counts its work, and charges the
/// extra sense latency on the timed device.
#[test]
fn read_retries_recover_data_and_cost_time() {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.faults = FaultConfig { read_unc: 0.8, read_retry_decay: 0.5, ..FaultConfig::none() };
    let mut faulty = Emulator::new(cfg, SanitizePolicy::evanesco());
    let mut clean = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    for ssd in [&mut faulty, &mut clean] {
        let tags = ssd.write(0, 16, true);
        for (i, &t) in tags.iter().enumerate() {
            assert_eq!(ssd.read(i as u64, 1)[0], Some(t), "retry ladder must recover data");
        }
    }
    let r = faulty.result();
    assert!(r.faults.read_retries > 0, "p = 0.8 over 16 reads must retry");
    assert!(r.sim_time > clean.result().sim_time, "reference-shift retries must cost device time");
}
