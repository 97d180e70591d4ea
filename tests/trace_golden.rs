//! Golden pin for `workloads::generate`.
//!
//! Every `sim_*` metric of the repo benchmark's `table2_policies`, every
//! Figure-14 table and `BENCH_report.json` start from the trace the
//! generator emits for a `(spec, logical pages, volume, seed)`. These
//! digests cover the whole trace — name, prefill and measured ops, every
//! field of every op, `FileId`s included — so a change to the generator's
//! bookkeeping that moves one RNG draw, one free-list pop or one
//! `swap_remove` fails here before it moves a simulated number.
//!
//! Cells: the four Table-2 specs × {`SsdConfig::scaled(12)`,
//! `SsdConfig::tiny_for_tests()`} logical sizes × seeds {42, 7 (the
//! benchmark's held-out seed)}, 2 × logical written, plus one
//! `with_secure_fraction(0.6)` case (Figure 14(c)'s input).

use evanesco::nand::math::{fnv1a, FNV1A_OFFSET};
use evanesco::ssd::SsdConfig;
use evanesco::workloads::generate::generate;
use evanesco::workloads::{Trace, TraceOp, WorkloadSpec};

/// `(spec, geometry, seed, digest)`, in [`cells`] order.
const GOLDEN: [(&str, &str, u64, u64); 17] = [
    ("MailServer", "scaled12", 42, 0xb4a0_8284_f53f_3303),
    ("MailServer", "scaled12", 7, 0xc4df_e31e_7302_53ca),
    ("MailServer", "tiny", 42, 0x813e_2dee_2ea3_1f5a),
    ("MailServer", "tiny", 7, 0x7444_4b9e_2369_2b2e),
    ("DBServer", "scaled12", 42, 0xec5e_3818_b750_1240),
    ("DBServer", "scaled12", 7, 0x6ec1_17d2_fa61_7f94),
    ("DBServer", "tiny", 42, 0x01e7_f2f2_2922_a086),
    ("DBServer", "tiny", 7, 0x99f4_4ead_1f0e_9249),
    ("FileServer", "scaled12", 42, 0x2dd1_67a1_cf03_b262),
    ("FileServer", "scaled12", 7, 0x7541_f2a0_c074_5982),
    ("FileServer", "tiny", 42, 0xd048_3cf8_47ed_8fb7),
    ("FileServer", "tiny", 7, 0xc779_a63b_7bee_b959),
    ("Mobile", "scaled12", 42, 0xa825_c409_00d9_cd8c),
    ("Mobile", "scaled12", 7, 0xb8b0_40fc_0a5e_4905),
    ("Mobile", "tiny", 42, 0x82b1_d8ca_0011_4264),
    ("Mobile", "tiny", 7, 0xfa69_e298_f494_51e7),
    ("DBServer@0.6", "scaled12", 42, 0x2679_b040_045f_bc18),
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        self.0 = fnv1a(self.0, b);
    }

    fn op(&mut self, op: &TraceOp) {
        // Fixed-width records behind a tag byte: fields cannot trade bytes.
        match *op {
            TraceOp::Write { file, lpa, npages, secure, overwrite } => {
                self.bytes(&[0, u8::from(secure), u8::from(overwrite)]);
                self.bytes(&file.to_le_bytes());
                self.bytes(&lpa.to_le_bytes());
                self.bytes(&npages.to_le_bytes());
            }
            TraceOp::Read { lpa, npages } => {
                self.bytes(&[1]);
                self.bytes(&lpa.to_le_bytes());
                self.bytes(&npages.to_le_bytes());
            }
            TraceOp::Trim { file, lpa, npages } => {
                self.bytes(&[2]);
                self.bytes(&file.to_le_bytes());
                self.bytes(&lpa.to_le_bytes());
                self.bytes(&npages.to_le_bytes());
            }
        }
    }
}

fn digest(t: &Trace) -> u64 {
    let mut h = Fnv(FNV1A_OFFSET);
    h.bytes(t.name.as_bytes());
    for phase in [&t.prefill, &t.ops] {
        h.bytes(&(phase.len() as u64).to_le_bytes());
        phase.iter().for_each(|op| h.op(op));
    }
    h.0
}

/// `(spec label, geometry label, seed, digest)` of every pinned cell.
fn cells() -> Vec<(String, &'static str, u64, u64)> {
    let sizes = [
        ("scaled12", SsdConfig::scaled(12).ftl.logical_pages()),
        ("tiny", SsdConfig::tiny_for_tests().ftl.logical_pages()),
    ];
    let mut out = Vec::new();
    for spec in WorkloadSpec::table2() {
        for (geo, logical) in sizes {
            for seed in [42, 7] {
                let t = generate(&spec, logical, 2 * logical, seed);
                out.push((spec.name.to_string(), geo, seed, digest(&t)));
            }
        }
    }
    let (geo, logical) = sizes[0];
    let spec = WorkloadSpec::db_server().with_secure_fraction(0.6);
    out.push(("DBServer@0.6".into(), geo, 42, digest(&generate(&spec, logical, 2 * logical, 42))));
    out
}

/// `cargo test --test trace_golden regen -- --ignored --nocapture` prints
/// the table to paste into [`GOLDEN`].
#[test]
#[ignore = "prints fresh digests; paste them only on a reviewed generator change"]
fn regen_trace_golden() {
    for (spec, geo, seed, d) in cells() {
        println!("    (\"{spec}\", \"{geo}\", {seed}, 0x{d:016x}),");
    }
}

#[test]
fn generated_traces_match_the_golden_digests() {
    let got = cells();
    assert_eq!(got.len(), GOLDEN.len(), "matrix shape changed");
    for ((spec, geo, seed, d), want) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (spec.as_str(), *geo, *seed, format!("{d:016x}")),
            (want.0, want.1, want.2, format!("{:016x}", want.3)),
            "trace diverged from the checked-in digest (got, want)"
        );
    }
}
