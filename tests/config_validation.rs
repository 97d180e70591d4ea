//! Edge-case tests for configuration validation: every structural
//! invariant of [`FtlConfig::validate`] and [`SsdConfig::validate`] must
//! reject its violation with a descriptive panic, a checkpoint carrying the
//! violation must decode to a typed error naming the same rule, and the
//! shipped presets must all pass.

use evanesco::ftl::{FtlConfig, SanitizePolicy};
use evanesco::nand::snapshot::{Dec, Enc, SnapshotError};
use evanesco::ssd::checkpoint::{decode_config, encode_config};
use evanesco::ssd::SsdConfig;

fn tiny_ftl() -> FtlConfig {
    FtlConfig::tiny_for_tests()
}

#[test]
fn shipped_presets_validate() {
    FtlConfig::paper().validate();
    FtlConfig::paper_scaled(32).validate();
    FtlConfig::tiny_for_tests().validate();
    SsdConfig::paper().validate();
    SsdConfig::scaled(32).validate();
    SsdConfig::tiny_for_tests().validate();
}

// ---- FtlConfig -------------------------------------------------------------

#[test]
#[should_panic(expected = "n_chips must be positive")]
fn ftl_rejects_zero_chips() {
    let mut cfg = tiny_ftl();
    cfg.n_chips = 0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "at least one block")]
fn ftl_rejects_zero_blocks() {
    let mut cfg = tiny_ftl();
    cfg.geometry.blocks = 0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "at least one wordline")]
fn ftl_rejects_zero_wordlines() {
    let mut cfg = tiny_ftl();
    cfg.geometry.wordlines_per_block = 0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "op_ratio must be in (0, 1)")]
fn ftl_rejects_zero_op_ratio() {
    let mut cfg = tiny_ftl();
    cfg.op_ratio = 0.0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "op_ratio must be in (0, 1)")]
fn ftl_rejects_full_op_ratio() {
    let mut cfg = tiny_ftl();
    cfg.op_ratio = 1.0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "op_ratio must be in (0, 1)")]
fn ftl_rejects_negative_op_ratio() {
    let mut cfg = tiny_ftl();
    cfg.op_ratio = -0.2;
    cfg.validate();
}

#[test]
#[should_panic(expected = "logical address space is empty")]
fn ftl_rejects_op_ratio_that_swallows_the_address_space() {
    let mut cfg = tiny_ftl();
    // 768 physical pages × (1 − 0.999) rounds down to zero logical pages.
    cfg.op_ratio = 0.999;
    cfg.validate();
}

#[test]
#[should_panic(expected = "logical capacity must be below 2^32 - 1 pages")]
fn ftl_rejects_a_logical_capacity_beyond_a_word_wide_p2l_entry() {
    let mut cfg = tiny_ftl();
    // 2 chips × 2^28 blocks × 24 pages × 0.8 ≈ 1.0e10 logical pages.
    cfg.geometry.blocks = 1 << 28;
    cfg.validate();
}

#[test]
#[should_panic(expected = "geometry and chip count must pack into a 31-bit L2P entry")]
fn ftl_rejects_a_device_whose_addresses_overflow_a_31_bit_l2p_entry() {
    let mut cfg = tiny_ftl();
    // 1 chip bit + 26 block bits + 5 page bits = 32, yet only ≈ 2.6e9
    // logical pages.
    cfg.geometry.blocks = 1 << 26;
    cfg.validate();
}

#[test]
#[should_panic(expected = "gc_free_threshold must be >= 1")]
fn ftl_rejects_zero_gc_threshold() {
    let mut cfg = tiny_ftl();
    cfg.gc_free_threshold = 0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "needs more than")]
fn ftl_rejects_gc_threshold_beyond_block_count() {
    let mut cfg = tiny_ftl();
    cfg.gc_free_threshold = cfg.geometry.blocks as usize;
    cfg.validate();
}

#[test]
#[should_panic(expected = "block_min_plocks must be >= 1")]
fn ftl_rejects_zero_block_min_plocks() {
    let mut cfg = tiny_ftl();
    cfg.block_min_plocks = 0;
    cfg.validate();
}

// ---- Fault model & reliability knobs ---------------------------------------

#[test]
#[should_panic(expected = "fault probability plock_fail must be in [0, 1]")]
fn ftl_rejects_out_of_range_fault_probability() {
    let mut cfg = tiny_ftl();
    cfg.faults.plock_fail = 1.5;
    cfg.validate();
}

#[test]
#[should_panic(expected = "fault probability erase_fail must be in [0, 1]")]
fn ftl_rejects_negative_fault_probability() {
    let mut cfg = tiny_ftl();
    cfg.faults.erase_fail = -0.1;
    cfg.validate();
}

#[test]
#[should_panic(expected = "fault probability read_retry_decay must be in [0, 1]")]
fn ftl_rejects_out_of_range_retry_decay() {
    let mut cfg = tiny_ftl();
    cfg.faults.read_retry_decay = 2.0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "program_fail must be below 1")]
fn ftl_rejects_certain_program_failure() {
    // p = 1.0 would make the write-remap loop diverge.
    let mut cfg = tiny_ftl();
    cfg.faults.program_fail = 1.0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "spare_blocks must be >= 1")]
fn ftl_rejects_zero_spare_blocks() {
    let mut cfg = tiny_ftl();
    cfg.reliability.spare_blocks = 0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "must be below spare_blocks")]
fn ftl_rejects_watermark_at_or_above_spares() {
    let mut cfg = tiny_ftl();
    cfg.reliability.spare_low_watermark = cfg.reliability.spare_blocks;
    cfg.validate();
}

#[test]
#[should_panic(expected = "must be below the")]
fn ftl_rejects_spares_exceeding_block_count() {
    let mut cfg = tiny_ftl();
    cfg.reliability.spare_blocks = cfg.geometry.blocks as usize;
    cfg.validate();
}

#[test]
fn storm_and_calibrated_fault_configs_validate() {
    for severity in [0.0, 0.5, 1.0] {
        let mut cfg = tiny_ftl();
        cfg.faults = evanesco::core::fault::FaultConfig::storm(severity, 7);
        // A full-severity storm saturates program_fail below the divergence
        // limit by construction.
        cfg.validate();
    }
    let mut cfg = tiny_ftl();
    cfg.faults = evanesco::core::fault::FaultConfig::calibrated(
        evanesco::core::calibration::DesignPoint::new(1, 100),
        1e-3,
        7,
    );
    cfg.validate();
}

// ---- SsdConfig -------------------------------------------------------------

// The channel topology is the FTL's: a device with no chips has no
// channels, and one with no chips per channel is refused before a channel
// count is derived from it.

#[test]
#[should_panic(expected = "n_chips must be positive")]
fn ssd_rejects_zero_channels() {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.n_chips = 0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "chips_per_channel must be >= 1")]
fn ssd_rejects_zero_chips_per_channel() {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.chips_per_channel = 0;
    cfg.validate();
}

#[test]
#[should_panic(expected = "gc_free_threshold must be >= 1")]
fn ssd_validate_reaches_the_embedded_ftl_config() {
    // The only violation sits inside the nested FtlConfig, so the panic
    // must come from its rules.
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.gc_free_threshold = 0;
    cfg.validate();
}

type Violate = fn(&mut SsdConfig);

/// Every violation the tests in this file provoke, as `(the text the
/// rule reports, the mutation)`.
const VIOLATIONS: [(&str, Violate); 21] = [
    ("n_chips must be positive", |c| c.ftl.n_chips = 0),
    ("at least one block", |c| c.ftl.geometry.blocks = 0),
    ("at least one wordline", |c| c.ftl.geometry.wordlines_per_block = 0),
    ("op_ratio must be in (0, 1)", |c| c.ftl.op_ratio = 0.0),
    ("op_ratio must be in (0, 1)", |c| c.ftl.op_ratio = 1.0),
    ("op_ratio must be in (0, 1)", |c| c.ftl.op_ratio = -0.2),
    ("logical address space is empty", |c| c.ftl.op_ratio = 0.999),
    ("logical capacity must be below 2^32 - 1 pages", |c| c.ftl.geometry.blocks = 1 << 28),
    ("must pack into a 31-bit L2P entry", |c| c.ftl.geometry.blocks = 1 << 26),
    ("gc_free_threshold must be >= 1", |c| c.ftl.gc_free_threshold = 0),
    ("needs more than", |c| c.ftl.gc_free_threshold = c.ftl.geometry.blocks as usize),
    ("block_min_plocks must be >= 1", |c| c.ftl.block_min_plocks = 0),
    ("fault probability plock_fail must be in [0, 1]", |c| c.ftl.faults.plock_fail = 1.5),
    ("fault probability erase_fail must be in [0, 1]", |c| c.ftl.faults.erase_fail = -0.1),
    ("fault probability read_retry_decay must be in [0, 1]", |c| {
        c.ftl.faults.read_retry_decay = 2.0
    }),
    ("program_fail must be below 1", |c| c.ftl.faults.program_fail = 1.0),
    ("spare_blocks must be >= 1", |c| c.ftl.reliability.spare_blocks = 0),
    ("must be below spare_blocks", |c| {
        c.ftl.reliability.spare_low_watermark = c.ftl.reliability.spare_blocks
    }),
    ("must be below the", |c| c.ftl.reliability.spare_blocks = c.ftl.geometry.blocks as usize),
    ("chips_per_channel must be >= 1", |c| c.ftl.chips_per_channel = 0),
    ("must divide n_chips", |c| c.ftl.chips_per_channel = 3),
];

#[test]
fn every_violation_in_a_checkpoint_decodes_to_corrupt_naming_the_rule() {
    for (rule, violate) in VIOLATIONS {
        let mut cfg = SsdConfig::tiny_for_tests();
        violate(&mut cfg);
        let text = cfg.check().expect_err(rule);
        assert!(text.contains(rule), "check() says {text:?}, the panic test expects {rule:?}");
        let mut e = Enc::new();
        encode_config(&cfg, &mut e);
        let bytes = e.into_bytes();
        match decode_config(&mut Dec::new(&bytes)) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(&text), "{msg}"),
            other => panic!("{rule}: want Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn emulator_construction_validates_config() {
    // Emulator::new calls validate(): a bad config cannot slip through.
    let result = std::panic::catch_unwind(|| {
        let mut cfg = SsdConfig::tiny_for_tests();
        cfg.ftl.chips_per_channel = 3; // does not divide the 2 chips
        evanesco::ssd::Emulator::new(cfg, SanitizePolicy::evanesco())
    });
    assert!(result.is_err(), "Emulator must reject an inconsistent topology");
}

#[test]
fn age_flags_rejects_poisoned_retention_spans_in_both_flag_modes() {
    use evanesco::core::{bap::BapConfig, pap::PapConfig, InvalidRetention};
    let mut ssd =
        evanesco::ssd::Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::evanesco());
    for physical in [false, true] {
        if physical {
            ssd.enable_device_flags(PapConfig::paper(), BapConfig::paper(), 1);
        }
        for bad in [-2.0, -f64::MIN_POSITIVE, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err: InvalidRetention = ssd.age_flags(bad).expect_err("poisoned span accepted");
            assert!(err.days.is_nan() == bad.is_nan() && (bad.is_nan() || err.days == bad));
            assert!(err.to_string().contains("finite and non-negative"), "{err}");
        }
        ssd.age_flags(0.0).expect("zero days is a valid rest");
        ssd.age_flags(1825.0).expect("five years is a valid rest");
    }
}

// ---------------------------------------------------------------------------
// CLI contract: experiment names are validated up front, before any run.
// ---------------------------------------------------------------------------

#[test]
fn experiment_registry_accepts_every_gate_subcommand() {
    // The binary rejects unknown names (exit 1) by consulting this
    // registry before running anything; every gate-bearing subcommand
    // must therefore be listed.
    for name in ["scheduler", "trace", "report", "campaign", "chaos", "fleet", "anatomy"] {
        assert!(
            evanesco_bench::is_experiment_name(name),
            "gate subcommand '{name}' missing from EXPERIMENTS"
        );
    }
    assert!(!evanesco_bench::is_experiment_name("schedular"), "typos must be rejected up front");
    assert!(!evanesco_bench::is_experiment_name("--seed"), "flags are not experiment names");
}

#[test]
#[should_panic(expected = "unknown experiment")]
fn run_experiment_panics_on_unknown_name_with_the_known_list() {
    let _ = evanesco_bench::run_experiment("schedular", &evanesco_bench::Scale::smoke());
}
