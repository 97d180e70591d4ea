//! Property-based tests of the trace generator: bounds, determinism, and
//! volume targets hold for arbitrary spec variations, not just the four
//! Table-2 presets.

use evanesco_workloads::generate::generate;
use evanesco_workloads::spec::{OpMix, WorkloadSpec};
use evanesco_workloads::trace::TraceOp;
use proptest::prelude::*;

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        0.0f64..2.0, // reads_per_write
        1u32..60,    // create weight
        0u32..60,    // append weight
        0u32..60,    // overwrite weight
        0u32..60,    // delete weight
        1u64..8,     // write size lo
        0u64..24,    // write size extra
        0.0f64..1.0, // secure fraction
    )
        .prop_map(|(rpw, c, a, o, d, lo, extra, sf)| WorkloadSpec {
            name: "prop",
            reads_per_write: rpw,
            mix: OpMix { create: c, append: a, overwrite: o, delete: d },
            write_pages: (lo, lo + extra),
            file_pages: (lo, (lo + extra).max(2)),
            secure_fraction: sf,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_specs_generate_valid_traces(
        spec in spec_strategy(),
        seed in 0u64..1000,
    ) {
        let logical = 2048u64;
        let volume = 1500u64;
        let trace = generate(&spec, logical, volume, seed);

        // Volume target met.
        prop_assert!(trace.main_write_pages() >= volume);

        // All ops in bounds, nonempty, and trims only cover owned pages
        // (no double-free: a page must be written before each trim of it).
        let mut live = vec![false; logical as usize];
        for op in trace.prefill.iter().chain(&trace.ops) {
            match *op {
                TraceOp::Write { lpa, npages, .. } => {
                    prop_assert!(lpa + npages <= logical);
                    prop_assert!(npages > 0);
                    for l in lpa..lpa + npages {
                        live[l as usize] = true;
                    }
                }
                TraceOp::Read { lpa, npages } => {
                    prop_assert!(lpa + npages <= logical);
                    prop_assert!(npages > 0);
                }
                TraceOp::Trim { lpa, npages, .. } => {
                    prop_assert!(lpa + npages <= logical);
                    for l in lpa..lpa + npages {
                        prop_assert!(live[l as usize], "trim of never-written lpa {}", l);
                        live[l as usize] = false;
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_seed(
        spec in spec_strategy(),
        seed in 0u64..1000,
    ) {
        let a = generate(&spec, 1024, 500, seed);
        let b = generate(&spec, 1024, 500, seed);
        prop_assert_eq!(a.prefill, b.prefill);
        prop_assert_eq!(a.ops, b.ops);
    }
}
