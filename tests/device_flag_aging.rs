//! End-to-end device-mode flag test: the whole SecureSSD stack running on
//! *physical* flag cells, aged for years, attacked afterwards. The paper's
//! DSE selections must keep the system sealed; the rejected design corners
//! must leak.

use evanesco::core::bap::BapConfig;
use evanesco::core::calibration::DesignPoint;
use evanesco::core::pap::PapConfig;
use evanesco::ftl::SanitizePolicy;
use evanesco::ssd::{Emulator, SsdConfig};

const WEAK_PAP: PapConfig = PapConfig { k: 9, point: DesignPoint { v_index: 2, t_us: 200 } };

/// A device with physical flags that wrote and deleted `pages` logical
/// pages from 0: the first two blocks' worth fill one block per chip (a
/// `bLock` each on trim), the rest are scattered pages (`pLock`s).
fn device_with_deleted_data(pap: PapConfig, bap: BapConfig, idle_days: f64) -> (Emulator, u64) {
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    ssd.enable_device_flags(pap, bap, 1234);
    ssd.age_flags(idle_days).unwrap();
    let pages = 2 * ssd.config().ftl.geometry.pages_per_block() as u64 + 6;
    ssd.write(0, pages, true);
    ssd.trim(0, pages);
    (ssd, pages)
}

fn run_aged(pap: PapConfig, bap: BapConfig, age_days: f64) -> (bool, usize) {
    let (mut ssd, pages) = device_with_deleted_data(pap, bap, 0.0);
    ssd.age_flags(age_days).unwrap();
    let ok = ssd.verify_sanitized(0, pages);
    let recovered = ssd.attacker_recoverable_tags().len();
    (ok, recovered)
}

#[test]
fn paper_selections_hold_for_five_years() {
    let (ok, recovered) = run_aged(PapConfig::paper(), BapConfig::paper(), 5.0 * 365.0);
    assert!(ok, "paper flag design leaked after 5 years");
    assert_eq!(recovered, 0);
}

#[test]
fn rejected_bap_corner_reopens_blocks_within_a_year() {
    let weak_bap = BapConfig { point: DesignPoint::new(5, 200) };
    let (ok, recovered) = run_aged(PapConfig::paper(), weak_bap, 365.0);
    assert!(!ok, "weak SSL programming should have leaked");
    assert!(recovered > 0);
}

#[test]
fn rejected_pap_corner_leaks_pages_at_five_years() {
    let (ok, _) = run_aged(WEAK_PAP, BapConfig::paper(), 5.0 * 365.0);
    assert!(!ok, "weak pAP programming should have leaked");
}

#[test]
fn fresh_weak_flags_still_hold() {
    // The rejected corners are not broken at programming time — only
    // retention kills them. (That is why the DSE needs the aging study.)
    let weak_bap = BapConfig { point: DesignPoint::new(5, 200) };
    let (ok, recovered) = run_aged(WEAK_PAP, weak_bap, 0.0);
    assert!(ok);
    assert_eq!(recovered, 0);
}

#[test]
fn a_lock_issued_after_an_idle_period_is_as_strong_as_a_fresh_one() {
    // (Vb5, 300 µs) reopens ~9 days after its bLock. The device sat idle
    // for 2000 days *before* anything was locked; that must not count.
    let weak_bap = BapConfig { point: DesignPoint::new(5, 300) };
    let (mut ssd, pages) = device_with_deleted_data(PapConfig::paper(), weak_bap, 2000.0);
    ssd.age_flags(1.0).unwrap();
    assert!(ssd.verify_sanitized(0, pages), "a one-day-old bLock decayed as if 2001 days old");
    assert_eq!(ssd.attacker_recoverable_tags().len(), 0);
    ssd.age_flags(29.0).unwrap();
    assert!(!ssd.verify_sanitized(0, pages), "the weak SSL reopens within a month of its bLock");
}

#[test]
fn the_verdict_does_not_depend_on_how_the_rest_is_sliced() {
    // Two years in one rest, in two, or in 730 daily ones: same leak.
    let recovered = |slices: u32| {
        let (mut ssd, _) = device_with_deleted_data(WEAK_PAP, BapConfig::paper(), 0.0);
        (0..slices).for_each(|_| ssd.age_flags(730.0 / f64::from(slices)).unwrap());
        ssd.attacker_recoverable_tags()
    };
    let whole = recovered(1);
    assert_eq!(recovered(2), whole);
    assert_eq!(recovered(730), whole);
}

#[test]
fn poisoned_retention_spans_are_refused_and_unlock_nothing() {
    let (mut ssd, pages) = device_with_deleted_data(PapConfig::paper(), BapConfig::paper(), 0.0);
    for bad in [-2.0, f64::NAN, f64::INFINITY] {
        assert!(ssd.age_flags(bad).is_err(), "{bad} accepted");
        assert!(ssd.verify_sanitized(0, pages), "age_flags({bad}) unlocked deleted data");
        assert_eq!(ssd.attacker_recoverable_tags().len(), 0);
    }
}

#[test]
fn erase_count_stats_reflect_wear() {
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    let logical = ssd.logical_pages();
    for _ in 0..3 {
        for l in 0..logical {
            ssd.write(l, 1, true);
        }
    }
    let (min, max, mean) = ssd.erase_count_stats();
    assert!(max >= 1, "GC churn must erase blocks");
    assert!(mean > 0.0);
    assert!(min <= max);
}
