//! Property tests for the scheduler's address-space edge: requests near
//! `u64::MAX`, zero-page requests, and out-of-bounds submissions must
//! produce typed errors or clean acceptance — never a panic, never an
//! overflow wrap, and never scheduler side effects on rejection. The
//! serialized `Emulator` entry points apply the same check.

use evanesco::ftl::SanitizePolicy;
use evanesco::ssd::{check_lpa_range, Emulator, HostOp, Scheduler, SsdConfig, SubmitError};
use proptest::prelude::*;

fn op_of_kind(kind: u8, lpa: u64, npages: u64) -> HostOp {
    match kind % 4 {
        0 => HostOp::Write { lpa, npages, secure: true },
        1 => HostOp::Write { lpa, npages, secure: false },
        2 => HostOp::Read { lpa, npages },
        _ => HostOp::Trim { lpa, npages },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Any request whose range straddles `u64::MAX` is a typed
    /// `RangeOverflow`, not a debug panic or a release wrap.
    #[test]
    fn ranges_straddling_u64_max_are_typed_errors(
        lpa in (u64::MAX - 64)..=u64::MAX,
        npages in 1u64..=128,
        kind in 0u8..4,
    ) {
        let op = op_of_kind(kind, lpa, npages);
        let mut sched = Scheduler::new(4, u64::MAX);
        match sched.try_submit(0, op) {
            Ok(accepted) => {
                // Accepted ⇒ the checked range agrees it fits.
                prop_assert!(accepted);
                prop_assert!(lpa.checked_add(npages).is_some());
                prop_assert!(check_lpa_range(lpa, npages, u64::MAX).is_ok());
            }
            Err(SubmitError::RangeOverflow { lpa: l, npages: n }) => {
                prop_assert_eq!((l, n), (lpa, npages));
                prop_assert!(lpa.checked_add(npages).is_none());
                // A rejected submission leaves no scheduler side effects.
                prop_assert_eq!(sched.outstanding(), 0);
            }
            Err(SubmitError::OutOfBounds { .. }) => {
                // With the device bound at u64::MAX, every range that
                // survives the overflow check fits by definition.
                prop_assert!(false, "OutOfBounds is unreachable at a u64::MAX device bound");
            }
        }
    }

    /// Below the device bound every request is accepted; at or past it,
    /// the error names the offending range and the scheduler state is
    /// untouched (a subsequent valid submission still works).
    #[test]
    fn out_of_bounds_rejection_is_typed_and_side_effect_free(
        logical in 1u64..1_000_000,
        lpa in 0u64..2_000_000,
        npages in 0u64..=64,
    ) {
        let mut sched = Scheduler::new(2, logical);
        let in_bounds = lpa.checked_add(npages).is_some_and(|hi| hi <= logical);
        let res = sched.try_submit(0, HostOp::Read { lpa, npages });
        prop_assert_eq!(res.is_ok(), in_bounds, "lpa {} + {} vs {}", lpa, npages, logical);
        if res.is_err() {
            prop_assert_eq!(sched.outstanding(), 0);
            // The scheduler still accepts a valid request afterwards.
            prop_assert!(sched.try_submit(1, HostOp::Read { lpa: 0, npages: 0 }).unwrap());
        }
    }

    /// Zero-page requests are legal no-ops anywhere in bounds — including
    /// exactly at the end of the address space.
    #[test]
    fn zero_page_requests_never_error_in_bounds(logical in 1u64..1_000_000) {
        let mut sched = Scheduler::new(2, logical);
        prop_assert!(sched.try_submit(0, HostOp::Write { lpa: logical, npages: 0, secure: true }).is_ok());
        prop_assert!(sched.try_submit(1, HostOp::Trim { lpa: 0, npages: 0 }).is_ok());
        prop_assert!(matches!(
            sched.try_submit(2, HostOp::Read { lpa: logical + 1, npages: 0 }),
            Err(SubmitError::OutOfBounds { .. })
        ));
    }
}

/// The emulator-facing check agrees with the scheduler's at every edge.
#[test]
fn config_and_scheduler_range_checks_agree() {
    let cfg = SsdConfig::tiny_for_tests();
    let lp = cfg.ftl.logical_pages();
    for (lpa, npages) in
        [(0, 0), (0, lp), (lp - 1, 1), (lp - 1, 2), (lp, 0), (lp, 1), (u64::MAX, 1), (u64::MAX, 0)]
    {
        assert_eq!(
            cfg.check_lpa_range(lpa, npages).is_ok(),
            check_lpa_range(lpa, npages, lp).is_ok(),
            "divergence at lpa={lpa} npages={npages}"
        );
    }
}

/// The serialized entry points apply the same check before any side
/// effect (`trim(u64::MAX - 1, 5)` used to wrap to an empty range and be
/// acked in release builds): the panic carries the typed error's text and
/// the device — tag counter included — is untouched. In-bounds zero-page
/// requests are no-ops.
#[test]
fn serialized_entry_points_reject_malformed_ranges_before_any_side_effect() {
    let cfg = SsdConfig::tiny_for_tests();
    let lp = cfg.ftl.logical_pages();
    let calls: [fn(&mut Emulator, u64, u64); 3] = [
        |ssd, lpa, n| drop(ssd.write(lpa, n, true)),
        |ssd, lpa, n| drop(ssd.read(lpa, n)),
        |ssd, lpa, n| ssd.trim(lpa, n),
    ];
    for call in calls {
        let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
        ssd.write(0, 4, true);
        let before = ssd.save_checkpoint();
        for (lpa, npages) in [(u64::MAX - 1, 5), (lp - 1, 2), (lp + 1, 0)] {
            let attempt = std::panic::AssertUnwindSafe(|| call(&mut ssd, lpa, npages));
            let panic = std::panic::catch_unwind(attempt).expect_err("must be rejected");
            let msg = panic.downcast_ref::<String>().expect("formatted panic message");
            let typed = check_lpa_range(lpa, npages, lp).unwrap_err().to_string();
            assert!(msg.contains(&typed), "({lpa}, {npages}): '{msg}' lacks '{typed}'");
            assert_eq!(ssd.save_checkpoint(), before, "({lpa}, {npages}) left a side effect");
        }
        call(&mut ssd, 0, 0);
        call(&mut ssd, lp, 0);
        assert_eq!(ssd.result().host_ops, 4, "zero-page requests count nothing");
    }
}
