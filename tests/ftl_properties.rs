//! Property-based tests: random host op sequences against every policy,
//! cross-checked with an in-memory model and the FTL's own invariants.

use evanesco::ftl::SanitizePolicy;
use evanesco::ssd::{Emulator, SsdConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// A host operation for property testing.
#[derive(Debug, Clone)]
enum HostOp {
    Write { lpa: u64, n: u64, secure: bool },
    Trim { lpa: u64, n: u64 },
    Read { lpa: u64, n: u64 },
}

fn host_op(logical: u64) -> impl Strategy<Value = HostOp> {
    let max_run = 8u64;
    prop_oneof![
        3 => (0..logical - max_run, 1..=max_run, any::<bool>())
            .prop_map(|(lpa, n, secure)| HostOp::Write { lpa, n, secure }),
        1 => (0..logical - max_run, 1..=max_run).prop_map(|(lpa, n)| HostOp::Trim { lpa, n }),
        1 => (0..logical - max_run, 1..=max_run).prop_map(|(lpa, n)| HostOp::Read { lpa, n }),
    ]
}

fn run_model_check(policy: SanitizePolicy, ops: &[HostOp]) {
    let cfg = SsdConfig::tiny_for_tests();
    let mut ssd = Emulator::new(cfg, policy);
    let logical = ssd.logical_pages();
    // Model: lpa -> current tag.
    let mut model: HashMap<u64, u64> = HashMap::new();
    for op in ops {
        match *op {
            HostOp::Write { lpa, n, secure } => {
                let lpa = lpa % (logical - n);
                let tags = ssd.write(lpa, n, secure);
                for (i, t) in tags.into_iter().enumerate() {
                    model.insert(lpa + i as u64, t);
                }
            }
            HostOp::Trim { lpa, n } => {
                let lpa = lpa % (logical - n);
                ssd.trim(lpa, n);
                for i in 0..n {
                    model.remove(&(lpa + i));
                }
            }
            HostOp::Read { lpa, n } => {
                let lpa = lpa % (logical - n);
                let got = ssd.read(lpa, n);
                for (i, g) in got.into_iter().enumerate() {
                    assert_eq!(
                        g,
                        model.get(&(lpa + i as u64)).copied(),
                        "{policy}: read mismatch at lpa {}",
                        lpa + i as u64
                    );
                }
            }
        }
        ssd.ftl().check_invariants();
    }
    // Final read-back of the whole space must match the model.
    for l in 0..logical {
        let got = ssd.read(l, 1);
        assert_eq!(got[0], model.get(&l).copied(), "{policy}: final state mismatch at {l}");
    }
    // Secure policies never leave a superseded secured version recoverable.
    if policy.is_immediate() {
        assert!(ssd.verify_sanitized(0, logical), "{policy}: sanitization hole");
    }
}

/// Replays `ops` over a two-thirds-full device and checks, after every
/// host op, that every LPA *outside* the op's range still lives on the
/// chip it lived on before: whatever the FTL moves behind the host's back
/// (GC, scrub sibling moves, erSSD's block evacuation, deferred locks) is
/// re-allocated on the same chip. The scheduler's cached read hints
/// (`evanesco::ssd::sched`, cost model) rest on exactly this. Returns the
/// pages the FTL relocated, so callers can tell the property was not
/// vacuous.
fn relocation_stays_on_chip(policy: SanitizePolicy, coalesce: bool, ops: &[HostOp]) -> u64 {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.lock_coalescing = coalesce;
    cfg.ftl.coalesce_window = 16;
    let mut ssd = Emulator::new(cfg, policy);
    let logical = ssd.logical_pages();
    for lpa in (0..logical * 2 / 3).step_by(4) {
        ssd.write(lpa, 4, lpa % 8 == 0);
    }
    let chips = |ssd: &Emulator| -> Vec<Option<usize>> {
        (0..logical).map(|l| ssd.ftl().mapped(l).map(|p| p.chip)).collect()
    };
    for op in ops {
        let before = chips(&ssd);
        let (lpa, n) = match *op {
            HostOp::Write { lpa, n, secure } => {
                let lpa = lpa % (logical - n);
                ssd.write(lpa, n, secure);
                (lpa, n)
            }
            HostOp::Trim { lpa, n } => {
                let lpa = lpa % (logical - n);
                ssd.trim(lpa, n);
                (lpa, n)
            }
            HostOp::Read { lpa, n } => {
                let lpa = lpa % (logical - n);
                ssd.read(lpa, n);
                (lpa, 0) // a read remaps nothing, its own range included
            }
        };
        let after = chips(&ssd);
        for l in (0..logical).filter(|l| !(lpa..lpa + n).contains(l)) {
            assert_eq!(
                after[l as usize], before[l as usize],
                "{policy} (coalesce={coalesce}): {op:?} moved bystander LPA {l} across chips"
            );
        }
    }
    ssd.ftl().stats().copied_pages
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn relocation_never_moves_a_page_to_another_chip(
        ops in proptest::collection::vec(host_op(2 * 16 * 24), 1..120),
        seed in any::<u64>(),
    ) {
        // Random ops wander over the whole device; the seeded hot-set
        // churn behind them overwrites far beyond capacity, so GC runs
        // with live pages to move under every policy.
        let mut ops = ops;
        let mut x = seed | 1;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ops.push(HostOp::Write { lpa: (x >> 32) % 96, n: 1 + (x % 4), secure: x % 3 != 0 });
        }
        for policy in SanitizePolicy::ALL {
            for coalesce in [false, true] {
                let relocated = relocation_stays_on_chip(policy, coalesce, &ops);
                prop_assert!(relocated > 0, "{policy} (coalesce={coalesce}): nothing was relocated");
            }
        }
    }

    #[test]
    fn random_host_sequences_preserve_semantics(
        ops in proptest::collection::vec(host_op(2 * 16 * 24), 1..120)
    ) {
        for policy in SanitizePolicy::ALL {
            run_model_check(policy, &ops);
        }
    }

    #[test]
    fn heavy_overwrite_churn_is_safe(
        seed in any::<u64>()
    ) {
        // Deterministic churn derived from the seed: overwrite a small hot
        // set far beyond capacity to force repeated GC.
        let mut x = seed | 1;
        let mut ops = Vec::new();
        for i in 0..300u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let lpa = x % 32;
            if i % 17 == 0 {
                ops.push(HostOp::Trim { lpa, n: 1 + (x % 4) });
            } else {
                ops.push(HostOp::Write { lpa, n: 1 + (x % 4), secure: x % 3 != 0 });
            }
        }
        for policy in [SanitizePolicy::evanesco(), SanitizePolicy::scrub()] {
            run_model_check(policy, &ops);
        }
    }
}

mod cell_encoding_props {
    use evanesco_nand::cell::{decode_bit, read_ref_voltages, state_bit, CellTech, VthState};
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn decode_inverts_encode_for_all_states(
            tech_idx in 0usize..3,
            state in 0u8..8,
            jitter in -0.04f64..0.04
        ) {
            let tech = [CellTech::Slc, CellTech::Mlc, CellTech::Tlc][tech_idx];
            prop_assume!((state as usize) < tech.n_states());
            let means = evanesco_nand::cell::nominal_states(tech);
            for &ty in tech.page_types() {
                let refs = read_ref_voltages(tech, ty);
                let vth = means[state as usize].0 + jitter;
                prop_assert_eq!(
                    decode_bit(tech, ty, &refs, vth),
                    state_bit(tech, VthState(state), ty)
                );
            }
        }
    }
}
