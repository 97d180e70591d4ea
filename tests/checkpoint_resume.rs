//! Bit-identical checkpoint/resume: the differential resume-equivalence
//! suite.
//!
//! [`Emulator::save_checkpoint`] serializes the *complete* device state —
//! NAND cells, flag intent, physical flag births and nonces, wear counters, FTL
//! tables, coalesce queue, grown-bad blocks, busy timelines, the
//! simulated clock, fault-model draw ordinals, RNG stream positions,
//! latency histograms, gauges and the telemetry ring — into one
//! versioned, self-describing blob. The contract pinned down here: a run
//! that stops at an arbitrary host-op boundary, serializes, rebuilds the
//! emulator from the bytes ([`Emulator::restore_checkpoint`]) and
//! continues is **indistinguishable, byte for byte**, from the run that
//! never stopped:
//!
//! * every post-resume scheduled op result is identical at every queue
//!   depth, across all five sanitization policies, with fault storms on;
//! * the final [`RunResult`], Prometheus scrape, VerTrace report
//!   and re-serialized checkpoint are identical;
//! * the golden fixture under `tests/data/` keeps the on-disk format
//!   honest, and damaged checkpoints (unknown version, truncation) fail
//!   with typed errors — never a panic.

use evanesco::core::bap::BapConfig;
use evanesco::core::calibration::DesignPoint;
use evanesco::core::fault::FaultConfig;
use evanesco::core::pap::PapConfig;
use evanesco::ftl::SanitizePolicy;
use evanesco::nand::snapshot::{Dec, Enc, SnapshotError};
use evanesco::nand::timing::Nanos;
use evanesco::ssd::{Emulator, HostOp, OpResult, SsdConfig};
use evanesco::workloads::generate::generate;
use evanesco::workloads::replay::apply;
use evanesco::workloads::trace::TraceOp;
use evanesco::workloads::{VerTrace, WorkloadSpec};
use proptest::prelude::*;

/// Rejected design corners: Figure 9(d)'s (vi) leaks pages within years,
/// Figure 12(b)'s (Vb5, 300 µs) reopens blocks within days.
const WEAK_PAP: PapConfig = PapConfig { k: 9, point: DesignPoint { v_index: 2, t_us: 200 } };
const WEAK_BAP: BapConfig = BapConfig { point: DesignPoint { v_index: 5, t_us: 300 } };

/// A telemetry-enabled device under test (the checkpoint must carry the
/// gauges and the windowed ring too, not just the simulation core).
fn device(cfg: SsdConfig, policy: SanitizePolicy) -> Emulator {
    let mut ssd = Emulator::new(cfg, policy);
    ssd.enable_gauges();
    ssd.enable_timeseries(Nanos::from_micros(200), 64);
    ssd
}

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

/// Everything the host (and an operator scraping metrics) can observe
/// at the end of a run.
fn observables(ssd: &Emulator) -> (String, String, Vec<u8>) {
    (format!("{:?}", ssd.result()), ssd.prometheus_scrape(), ssd.save_checkpoint())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The headline differential oracle: over random (workload, policy,
    /// queue depth, fault seed, cut point), checkpointing after batch k
    /// and resuming from the bytes replays the remaining batches with
    /// identical per-op results and ends in an identical device.
    #[test]
    fn checkpoint_at_k_then_resume_equals_uninterrupted(
        ops in proptest::collection::vec(sched_op(600), 4..60),
        policy_i in 0usize..5,
        qd in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
        severity in 0.0f64..0.5,
        fault_seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
        flags in 0usize..3,
        rest_half_days in 0u32..400,
    ) {
        let mut cfg = SsdConfig::tiny_for_tests();
        if severity >= 0.05 {
            cfg.ftl.faults = FaultConfig::storm(severity, fault_seed);
        }
        let policy = SanitizePolicy::ALL[policy_i];
        let batches: Vec<&[HostOp]> = ops.chunks(8).collect();
        let cut = ((batches.len() as f64) * cut_frac) as usize;
        // Behavioral flags, the paper's physical flags, or a physical corner
        // weak enough that decodes actually flip while the device rests.
        let flagged_device = |cfg, policy| {
            let mut ssd = device(cfg, policy);
            match flags {
                0 => {}
                1 => ssd.enable_device_flags(PapConfig::paper(), BapConfig::paper(), fault_seed),
                _ => ssd.enable_device_flags(WEAK_PAP, WEAK_BAP, fault_seed),
            }
            ssd
        };
        let rest = f64::from(rest_half_days);

        // Control arm: never stops, and rests once after every batch.
        let mut a = flagged_device(cfg, policy);
        let mut a_results: Vec<Vec<OpResult>> = Vec::new();
        for b in &batches {
            a_results.push(a.run_scheduled(b, qd).results);
            a.age_flags(2.0 * rest).unwrap();
        }

        // Resumed arm: same batches with every rest taken in two halves,
        // and the process "dies" after batch `cut` — only the checkpoint
        // bytes survive.
        let mut em = flagged_device(cfg, policy);
        let mut b_results: Vec<Vec<OpResult>> = Vec::new();
        let mut run = |em: &mut Emulator, b: &[HostOp]| {
            b_results.push(em.run_scheduled(b, qd).results);
            em.age_flags(rest).unwrap();
            em.age_flags(rest).unwrap();
        };
        batches[..cut].iter().for_each(|b| run(&mut em, b));
        let bytes = em.save_checkpoint();
        drop(em);
        let mut em = Emulator::restore_checkpoint(&bytes)
            .expect("a checkpoint this test just wrote must restore");
        batches[cut..].iter().for_each(|b| run(&mut em, b));

        prop_assert_eq!(&a_results, &b_results, "per-op results diverged after resume");
        prop_assert_eq!(observables(&a), observables(&em));
        // What the flags decode to, as a raw-chip attacker experiences it.
        prop_assert_eq!(a.attacker_recoverable_tags(), em.attacker_recoverable_tags());
    }

    /// The same oracle at file level: a workload trace with VerTrace
    /// attached, cut anywhere (including inside the prefill). Both the
    /// device checkpoint *and* the serialized VerTrace cross the boundary;
    /// the final Table-1 report must not notice.
    #[test]
    fn ledger_attribution_survives_a_mid_trace_resume(
        spec_i in 0usize..4,
        policy_i in 0usize..5,
        seed in any::<u64>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let specs = [
            WorkloadSpec::mobile(),
            WorkloadSpec::mail_server(),
            WorkloadSpec::db_server(),
            WorkloadSpec::file_server(),
        ];
        let mut cfg = SsdConfig::tiny_for_tests();
        cfg.track_tags = false;
        cfg.stale_audit = false;
        let policy = SanitizePolicy::ALL[policy_i];
        let logical = Emulator::new(cfg, policy).logical_pages();
        let trace = generate(&specs[spec_i], logical, 250, seed);
        let stream: Vec<&TraceOp> = trace.prefill.iter().chain(&trace.ops).collect();
        let cut = ((stream.len() as f64) * cut_frac) as usize;

        // Control arm.
        let mut a = device(cfg, policy);
        let mut a_lg = VerTrace::new();
        for op in &stream {
            a_lg.note_op(op);
            apply(&mut a, &mut a_lg, op);
        }

        // Resumed arm: both the device and VerTrace travel as bytes.
        let mut em = device(cfg, policy);
        let mut lg = VerTrace::new();
        for op in &stream[..cut] {
            lg.note_op(op);
            apply(&mut em, &mut lg, op);
        }
        let dev_bytes = em.save_checkpoint();
        let mut enc = Enc::new();
        lg.encode_state(&mut enc);
        let lg_bytes = enc.into_bytes();
        drop((em, lg));
        let mut em = Emulator::restore_checkpoint(&dev_bytes).expect("device restore");
        let mut dec = Dec::new(&lg_bytes);
        let mut lg = VerTrace::decode_state(&cfg.ftl, &mut dec).expect("vertrace restore");
        dec.finish().expect("no trailing vertrace bytes");
        for op in &stream[cut..] {
            lg.note_op(op);
            apply(&mut em, &mut lg, op);
        }

        prop_assert_eq!(
            format!("{:?}", a_lg.report(logical)),
            format!("{:?}", lg.report(logical)),
            "exposure attribution diverged after resume"
        );
        prop_assert_eq!(observables(&a), observables(&em));
    }
}

// ---------------------------------------------------------------------------
// Golden format: the checked-in fixture pins the on-disk byte layout
// (`checkpoint_v3.ckpt`, the current format) and must round-trip
// byte-identically.
// ---------------------------------------------------------------------------

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/checkpoint_v3.ckpt");

/// The fixed script behind the golden fixture. Deterministic: the same
/// library version always produces the same bytes. Physical flags are on,
/// one whole block per chip is deleted at once (a `bLock` each) and the
/// device rests once mid-script, so the flag-device sections carry SSLs
/// and page flags born on two different days.
fn golden_device() -> Emulator {
    let mut ssd = device(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    ssd.enable_device_flags(PapConfig::paper(), BapConfig::paper(), 0xF1A6);
    let block_per_chip = 2 * u64::from(ssd.config().ftl.geometry.pages_per_block());
    let _ = ssd.write(400, block_per_chip, true);
    ssd.trim(400, block_per_chip);
    let mut x = 0xE5CAu64;
    for i in 0..60 {
        if i == 40 {
            ssd.age_flags(30.0).unwrap();
        }
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let lpa = x % 300;
        match x % 7 {
            0..=3 => {
                let _ = ssd.write(lpa, 1 + x % 3, !x.is_multiple_of(4));
            }
            4 => ssd.trim(lpa, 1 + x % 3),
            _ => {
                let _ = ssd.read(lpa, 1 + x % 3);
            }
        }
    }
    ssd.sample_timeseries_now();
    ssd
}

/// Regenerates the fixture. Run after an *intentional, reviewed*
/// format change (bump the checkpoint version first):
/// `cargo test --release --test checkpoint_resume regen -- --ignored`
#[test]
#[ignore = "writes the golden fixture; run only on a reviewed format change"]
fn regen_golden_fixture() {
    std::fs::write(GOLDEN, golden_device().save_checkpoint()).expect("write fixture");
}

/// The current encoder still produces the checked-in bytes, and
/// the decoder round-trips them into a device that re-encodes identically.
#[test]
fn golden_fixture_round_trips_byte_identically() {
    let fixture = std::fs::read(GOLDEN).expect("checked-in fixture exists");
    assert_eq!(
        golden_device().save_checkpoint(),
        fixture,
        "the checkpoint byte format changed; if intentional, bump the checkpoint \
         version and regenerate the fixture (see regen_golden_fixture)"
    );
    let restored = Emulator::restore_checkpoint(&fixture).expect("fixture restores");
    assert_eq!(restored.save_checkpoint(), fixture, "restore/re-encode must be the identity");
    assert!(restored.result().host_ops > 0, "the fixture device did real work");
}

/// A device restored from the golden fixture serves reads out of its
/// rebuilt payload pool and keeps operating: write/read/trim after
/// restore behave exactly as on the never-checkpointed device. This is
/// the behavioural (not just byte-equality) check that the pooled page
/// store and dense ledger decode into *working* state.
#[test]
fn restored_golden_device_serves_reads_and_keeps_working() {
    let fixture = std::fs::read(GOLDEN).expect("checked-in fixture exists");
    let mut restored = Emulator::restore_checkpoint(&fixture).expect("fixture restores");
    let mut fresh = golden_device();
    // Same follow-on script on both; every op result must match.
    for lpa in 0..40u64 {
        assert_eq!(restored.read(lpa, 2), fresh.read(lpa, 2), "read {lpa} diverged");
        if lpa % 3 == 0 {
            assert_eq!(
                restored.write(lpa, 1, true),
                fresh.write(lpa, 1, true),
                "write {lpa} diverged"
            );
        }
        if lpa % 7 == 0 {
            restored.trim(lpa, 1);
            fresh.trim(lpa, 1);
        }
    }
    assert_eq!(
        restored.save_checkpoint(),
        fresh.save_checkpoint(),
        "post-resume state diverged from the uninterrupted device"
    );
}

/// A checkpoint from a future (unknown) format version — or from the
/// retired formats 1 and 2 — is rejected with a typed, descriptive error: not a
/// panic, not garbage state.
#[test]
fn unknown_version_fails_with_a_clear_error() {
    let mut bytes = std::fs::read(GOLDEN).expect("checked-in fixture exists");
    for version in [u32::MAX, 2, 1, 0] {
        // Layout: 8-byte magic, then the little-endian u32 format version.
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        for restored in [
            Emulator::restore_checkpoint(&bytes),
            Emulator::restore_checkpoint_salvaging(&bytes).map(|(em, _)| em),
        ] {
            match restored {
                Err(e @ SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!((found, supported), (version, 3));
                    assert!(e.to_string().contains("version"), "error must name the problem: {e}");
                }
                other => panic!("want UnsupportedVersion for {version}, got {other:?}"),
            }
        }
    }
}

/// Truncation at *any* byte boundary fails gracefully with a typed
/// error; a wrong magic is its own error.
#[test]
fn truncated_or_mislabeled_checkpoints_fail_without_panicking() {
    let bytes = std::fs::read(GOLDEN).expect("checked-in fixture exists");
    for len in [0, 4, 11, 12, 100, bytes.len() / 2, bytes.len() - 1] {
        let err = Emulator::restore_checkpoint(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes must fail"));
        assert!(!err.to_string().is_empty());
    }
    let mut wrong = bytes;
    wrong[0] ^= 0xFF;
    assert!(matches!(Emulator::restore_checkpoint(&wrong), Err(SnapshotError::BadMagic)));
}
