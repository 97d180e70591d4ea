//! Metadata-integrity armor, property-tested.
//!
//! Four families of properties back the chaos gate's hand-built matrix
//! (`experiments chaos`) with randomized coverage:
//!
//! * **Checkpoint armor** — flipping *any single byte* of a valid
//!   checkpoint yields a typed [`SnapshotError`] from the strict path
//!   (every byte is covered by the header or a section CRC), and the
//!   salvaging path either reports what it rebuilt and hands back a
//!   *working* device, or fails with a typed error naming a required
//!   section. Never a panic, never a silently wrong restore.
//! * **Guard armor** — under a random corruption storm on the direct
//!   host path, every read still serves exactly what an acked-op shadow
//!   model expects (repair-before-serve), and the accounting identity
//!   `injected == detected == from_oob + rederived + unrecoverable`
//!   holds after the final settle.
//! * **Hint-cache armor** — at queue depth 32 the scheduler caches the
//!   chip set of every queued read; a corruption (and its repair) that
//!   rewrites the mapping of a read *while it waits, eligible,* must
//!   drop those sets, or selection would score reads from chips their
//!   pages no longer (or not yet again) map to.
//! * **Watchdog armor** — at any stall rate and queue depth the
//!   scoreboard reconciles (`stalls == aborts == retries + failures`)
//!   and every budget-exhausted request surfaces as a typed
//!   [`OpResult::TimedOut`], exactly once per deadline failure.

use evanesco::core::fault::CorruptionConfig;
use evanesco::ftl::observer::NullObserver;
use evanesco::ftl::SanitizePolicy;
use evanesco::ssd::{DeadlineConfig, Emulator, HostOp, OpResult, SsdConfig};
use proptest::prelude::*;
use std::collections::HashMap;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// A small but non-trivial device: secure and insecure writes, trims,
/// reads — enough churn that every checkpoint section is populated.
fn scripted_device(seed: u64) -> Emulator {
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    let mut x = seed | 1;
    for _ in 0..40 {
        x = lcg(x);
        let lpa = x % 200;
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
    ssd
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Checkpoint armor: any single-byte flip anywhere in the blob is
    /// either detected (typed strict error AND a truthful salvage
    /// report) or — for a required section — a typed salvage error.
    #[test]
    fn any_single_byte_flip_is_detected_or_salvaged(
        seed in any::<u64>(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let mut bytes = scripted_device(seed).save_checkpoint();
        let pos = (((bytes.len() as f64) * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= xor;

        // Strict restore: every byte is covered by the magic/version
        // header or by a section CRC, so the flip MUST surface as a
        // typed error — a clean restore here is silent wrong data.
        let err = Emulator::restore_checkpoint(&bytes).err();
        prop_assert!(err.is_some(), "flip at byte {pos} restored cleanly");
        prop_assert!(!err.expect("checked").to_string().is_empty());

        // Salvaging restore: either a working device plus an honest
        // report, or a typed error (required section damaged).
        match Emulator::restore_checkpoint_salvaging(&bytes) {
            Ok((mut ssd, report)) => {
                prop_assert!(
                    !report.is_clean(),
                    "salvage at byte {pos} reported a clean restore of damaged bytes"
                );
                ssd.ftl().check_invariants();
                prop_assert!(ssd.write_tracked(0, 1, true)[0].1, "salvaged device is dead");
                let _ = ssd.read(0, 4);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Guard armor on the direct path: reads never diverge from the
    /// acked shadow, and the accounting identity balances at any rate.
    #[test]
    fn storm_never_serves_wrong_data_and_always_balances(
        seed in any::<u64>(),
        rate in 0.05f64..0.5,
    ) {
        let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
        ssd.enable_chaos(CorruptionConfig::storm(rate, seed ^ 0xA53));
        let mut shadow: HashMap<u64, u64> = HashMap::new();
        let mut x = seed | 1;
        for _ in 0..250 {
            x = lcg(x);
            let lpa = x % 160;
            match x % 6 {
                0..=2 => {
                    for (i, (tag, acked)) in
                        ssd.write_tracked(lpa, 1 + x % 3, !x.is_multiple_of(4)).into_iter().enumerate()
                    {
                        prop_assert!(acked);
                        shadow.insert(lpa + i as u64, tag);
                    }
                }
                3 => {
                    let n = 1 + x % 3;
                    prop_assert!(ssd.trim_with(&mut NullObserver, lpa, n));
                    for l in lpa..lpa + n {
                        shadow.remove(&l);
                    }
                }
                _ => {
                    for (i, got) in ssd.read(lpa, 1 + x % 3).into_iter().enumerate() {
                        prop_assert_eq!(
                            got,
                            shadow.get(&(lpa + i as u64)).copied(),
                            "read diverged from the acked shadow at lpa {}",
                            lpa + i as u64
                        );
                    }
                }
            }
        }
        ssd.chaos_finalize();
        ssd.ftl().check_invariants();
        let stats = ssd.ftl().stats();
        prop_assert!(stats.meta_corruptions_injected > 0, "storm never fired: {:?}", stats);
        prop_assert!(stats.meta_accounting_balanced(), "identity broken: {:?}", stats);
        prop_assert_eq!(
            ssd.chaos_stats().expect("chaos armed").injected,
            stats.meta_corruptions_injected,
            "injector and FtlStats disagree"
        );
    }

    /// Watchdog armor: the scoreboard reconciles at any stall rate and
    /// queue depth, and `TimedOut` results match deadline failures 1:1.
    #[test]
    fn watchdog_reconciles_and_types_every_deadline_failure(
        seed in any::<u64>(),
        rate in 0.0f64..0.6,
        qd in prop_oneof![Just(1usize), Just(2usize), Just(8usize)],
    ) {
        let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
        ssd.enable_watchdog(DeadlineConfig::for_tests(seed ^ 0xD06, rate));
        let logical = ssd.logical_pages();
        let mut ops = Vec::new();
        let mut x = seed | 1;
        for _ in 0..120 {
            x = lcg(x);
            let lpa = x % (logical - 4);
            ops.push(match x % 5 {
                0..=2 => HostOp::Write { lpa, npages: 1 + x % 4, secure: x % 2 == 0 },
                3 => HostOp::Read { lpa, npages: 1 + x % 4 },
                _ => HostOp::Trim { lpa, npages: 1 + x % 4 },
            });
        }
        let run = ssd.run_scheduled(&ops, qd);
        let stats = ssd.watchdog_stats().expect("watchdog armed");
        prop_assert!(stats.reconciles(), "scoreboard identity broken: {:?}", stats);
        let timed_out =
            run.results.iter().filter(|r| matches!(r, OpResult::TimedOut)).count() as u64;
        prop_assert_eq!(
            timed_out, stats.deadline_failures,
            "typed TimedOut results must match deadline failures: {:?}", stats
        );
    }
}

/// Hint-cache armor. A cyclic sweep of one-page reads over 32 hot LPAs
/// keeps the depth-32 window holding one eligible read of *every* hot
/// LPA, so any L2P corruption landing on a hot LPA rewrites the mapping
/// of a queued, eligible read — and its repair rewrites it back. Mapped
/// hot LPAs get unmapped (the read then looks free and dispatches at
/// once); unmapped ones get mapped to a random chip (the read then waits
/// through the repair). The emulator checks each cached hint against a
/// fresh L2P lookup under debug assertions (on in this profile), so a
/// cache that outlived either rewrite panics here; the results must
/// match the shadow.
#[test]
fn guard_repair_under_a_queued_read_drops_the_cached_chip_sets() {
    const REQUESTS: usize = 1500;
    const MAPPED: u64 = 100;
    let chaos = CorruptionConfig::storm(0.5, 0xC0FFEE);
    let hot = |i: usize| 5 * (i % 32) as u64; // 0, 5, .., 155: 20 mapped, 12 not
    let device = || {
        let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
        let shadow: Vec<u64> = ssd.write(0, MAPPED, true);
        ssd.enable_chaos(chaos);
        (ssd, shadow)
    };

    // Injection is keyed on the op-boundary ordinal alone, so a serialized
    // replay sees the very corruptions the scheduled run will: count the
    // boundaries that leave a hot LPA's mapping rewritten, each way, while
    // the window is full.
    let (mut ssd, shadow) = device();
    let (mut unmapped, mut conjured) = (0, 0);
    for i in 0..REQUESTS - 32 {
        assert_eq!(
            ssd.read(hot(i), 1),
            [shadow.get(hot(i) as usize).copied()],
            "repair-before-serve"
        );
        for lpa in (0..32).map(hot) {
            match ssd.ftl().mapped(lpa) {
                None if lpa < MAPPED => unmapped += 1,
                Some(_) if lpa >= MAPPED => conjured += 1,
                _ => {}
            }
        }
    }
    assert!(unmapped > 0 && conjured > 0, "the storm missed the hot set: {unmapped}/{conjured}");

    let (mut ssd, shadow) = device();
    let ops: Vec<HostOp> = (0..REQUESTS).map(|i| HostOp::Read { lpa: hot(i), npages: 1 }).collect();
    let run = ssd.run_scheduled(&ops, 32);
    assert_eq!(run.max_outstanding, 32);
    for (i, result) in run.results.iter().enumerate() {
        assert_eq!(
            *result,
            OpResult::Read(vec![shadow.get(hot(i) as usize).copied()]),
            "request {i} diverged from the shadow"
        );
    }
    ssd.chaos_finalize();
    ssd.ftl().check_invariants();
    let stats = ssd.ftl().stats();
    assert!(stats.meta_repairs_from_oob > 0, "no L2P repair ran: {stats:?}");
    assert!(stats.meta_accounting_balanced(), "identity broken: {stats:?}");
}
