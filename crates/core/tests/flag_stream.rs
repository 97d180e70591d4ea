//! The physical flag stream as seen through the public API: the keyed cell
//! voltages follow the calibrated distributions, and a flag's decode is a
//! function of its own `(nonce, age)` only — not of what happened to any
//! other flag, how rest was sliced, or whether the simulation went through
//! a checkpoint in between.

use evanesco_core::bap::BapConfig;
use evanesco_core::calibration::{
    plock_flag_margin, plock_flag_success, DesignPoint, PLOCK_FLAG_SIGMA, PLOCK_T_US,
    PLOCK_V_INDICES,
};
use evanesco_core::device_flags::FlagDeviceSim;
use evanesco_core::pap::{
    cell_vth, cells_read_disabled, majority_failure_prob, PapConfig, ERASED_CELL_VTH,
};
use evanesco_nand::geometry::{BlockId, Ppa};
use evanesco_nand::snapshot::{Dec, Enc};
use proptest::prelude::*;

/// Figure 9(d)'s weakest candidate (vi): leaks within the rated lifetime.
const WEAK_PAP: PapConfig = PapConfig { k: 9, point: DesignPoint { v_index: 2, t_us: 200 } };

/// Distribution pin: at every pLock design point the programmed fraction,
/// and the mean and sigma of the programmed cells, are the calibrated ones.
#[test]
fn keyed_cells_follow_the_calibrated_distribution_at_every_design_point() {
    let flags = 12_000u64; // x 9 cells = 108 000 cells per point
    for v in PLOCK_V_INDICES {
        for t in PLOCK_T_US {
            let point = DesignPoint::new(v, t);
            let (mut n, mut sum, mut sum_sq) = (0.0f64, 0.0f64, 0.0f64);
            for nonce in 0..flags {
                for cell in 0..9 {
                    let vth = cell_vth(0xD157, point, nonce, cell, 0.0);
                    if vth != ERASED_CELL_VTH {
                        n += 1.0;
                        sum += vth;
                        sum_sq += vth * vth;
                    }
                }
            }
            let cells = (flags * 9) as f64;
            let p = plock_flag_success(point);
            let three_sigma = 3.0 * (p * (1.0 - p) / cells).sqrt();
            assert!(
                (n / cells - p).abs() <= three_sigma + 1.0 / cells,
                "{point:?}: programmed fraction {} vs calibrated {p}",
                n / cells
            );
            let mean = sum / n;
            let sigma = (sum_sq / n - mean * mean).sqrt();
            let margin = plock_flag_margin(point);
            assert!((mean / margin - 1.0).abs() < 0.01, "{point:?}: mean {mean} vs {margin}");
            assert!(
                (sigma / PLOCK_FLAG_SIGMA - 1.0).abs() < 0.01,
                "{point:?}: sigma {sigma} vs {PLOCK_FLAG_SIGMA}"
            );
        }
    }
}

#[test]
fn mc_majority_failure_agrees_with_analytic_at_the_weak_corner() {
    // The analytic form ignores the per-cell detrapping spread, which
    // fattens the low tail a little (0.043 vs 0.029 at one year); the
    // tolerance covers that bias plus the sampling error of 10^5 flags.
    let flags = 100_000u64;
    for days in [0.0, 365.0, 5.0 * 365.0] {
        let failed = (0..flags).filter(|&n| !cells_read_disabled(24, WEAK_PAP, n, days)).count();
        let mc = failed as f64 / flags as f64;
        let analytic = majority_failure_prob(WEAK_PAP.point, days, WEAK_PAP.k);
        assert!((mc - analytic).abs() < 0.02, "{days} days: mc {mc} vs analytic {analytic}");
    }
}

const BLOCKS: u32 = 4;
const PPB: u32 = 16;

#[derive(Debug, Clone, Copy)]
enum Cmd {
    PLock {
        b: u32,
        p: u32,
    },
    BLock {
        b: u32,
    },
    Erase {
        b: u32,
    },
    /// Rest for `quarters` quarter-days (dyadic, so slices sum exactly).
    Rest {
        quarters: u32,
    },
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        6 => (0..BLOCKS, 0..PPB).prop_map(|(b, p)| Cmd::PLock { b, p }),
        1 => (0..BLOCKS).prop_map(|b| Cmd::BLock { b }),
        1 => (0..BLOCKS).prop_map(|b| Cmd::Erase { b }),
        2 => (0u32..4000).prop_map(|quarters| Cmd::Rest { quarters }),
    ]
}

fn apply(sim: &mut FlagDeviceSim, c: Cmd, slices: u32) {
    match c {
        Cmd::PLock { b, p } => sim.program_page_flag(Ppa::new(b, p)),
        Cmd::BLock { b } => sim.program_block_flag(BlockId(b)),
        Cmd::Erase { b } => sim.erase_block(BlockId(b)),
        Cmd::Rest { quarters } => {
            let (whole, rem) = (quarters / slices, quarters % slices);
            for s in 0..slices {
                let q = whole + u32::from(s < rem);
                sim.age(f64::from(q) * 0.25).expect("finite, non-negative");
            }
        }
    }
}

/// What every flag of the chip decodes to, in address order.
fn decoded(sim: &FlagDeviceSim) -> Vec<bool> {
    let pages = (0..BLOCKS).flat_map(|b| (0..PPB).map(move |p| Ppa::new(b, p)));
    pages
        .map(|ppa| sim.page_reads_locked(ppa))
        .chain((0..BLOCKS).map(|b| sim.block_reads_locked(BlockId(b))))
        .collect()
}

fn encoded(sim: &FlagDeviceSim) -> Vec<u8> {
    let mut e = Enc::new();
    sim.encode_state(&mut e);
    e.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One arm runs the commands straight. The other senses every flag
    /// after every command, takes each rest in `slices` pieces, and goes
    /// through encode/decode at every `ckpt_every`-th command. Both end
    /// with the same decode of every flag and the same bytes.
    #[test]
    fn a_flags_decode_is_independent_of_reads_rest_slicing_and_checkpoints(
        cmds in proptest::collection::vec(cmd(), 1..120),
        seed in any::<u64>(),
        slices in 1u32..5,
        ckpt_every in 1usize..10,
    ) {
        let weak_bap = BapConfig { point: DesignPoint::new(5, 300) };
        let mut straight = FlagDeviceSim::new(WEAK_PAP, weak_bap, seed, BLOCKS, PPB);
        let mut busy = straight.clone();
        for (i, &c) in cmds.iter().enumerate() {
            apply(&mut straight, c, 1);
            apply(&mut busy, c, slices);
            std::hint::black_box(decoded(&busy));
            if i % ckpt_every == 0 {
                let bytes = encoded(&busy);
                let d = &mut Dec::new(&bytes);
                busy = FlagDeviceSim::decode_state(d, WEAK_PAP, weak_bap, BLOCKS, PPB)
                    .expect("a stream this test just wrote must decode");
            }
        }
        prop_assert_eq!(decoded(&straight), decoded(&busy));
        prop_assert_eq!(straight.leaked_page_flags(), busy.leaked_page_flags());
        prop_assert_eq!(encoded(&straight), encoded(&busy));
    }
}
