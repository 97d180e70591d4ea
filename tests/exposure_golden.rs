//! Golden pin for the exposure accounting behind Table 1, Figure 4 and
//! `BENCH_report.json`.
//!
//! Each cell replays one generated Table-2 trace on a small device with
//! VerTrace attached and digests everything it reports:
//!
//! * the `0x60` checkpoint bytes, before and after the end-of-run report
//!   (which closes open insecure intervals and right-censors open exposure
//!   windows);
//! * the report's fields, spelled out one by one — file counts, every
//!   `f64` by its bits, the retirement-path arrays and the exposure
//!   histograms — so renaming a type or a field cannot move a digest;
//! * the Figure-4 worst file of each class: id, peaks, insecure ticks and
//!   the whole `(tick, valid, invalid)` timeline.
//!
//! Cells: the four Table-2 specs × {`none`, `evanesco`} × seeds {42, 7} on
//! `SsdConfig::tiny_for_tests()`, 2 × logical pages written.

use evanesco::ftl::SanitizePolicy;
use evanesco::nand::math::{fnv1a, FNV1A_OFFSET};
use evanesco::nand::snapshot::Enc;
use evanesco::ssd::{Emulator, SsdConfig};
use evanesco::workloads::generate::generate;
use evanesco::workloads::replay::replay_with;
use evanesco::workloads::vertrace::VerTrace;
use evanesco::workloads::{CauseCounts, ExposureHistogram, WorkloadSpec};

/// `(spec, policy, seed, digest)`, in [`cells`] order.
const GOLDEN: [(&str, &str, u64, u64); 16] = [
    ("MailServer", "none", 42, 0x9969_43f4_11fb_82b3),
    ("MailServer", "none", 7, 0xae4e_6216_1bce_4690),
    ("MailServer", "evanesco", 42, 0x2492_1031_73ae_36d7),
    ("MailServer", "evanesco", 7, 0x7e63_ea31_7572_3122),
    ("DBServer", "none", 42, 0x1cb7_da86_7c81_8023),
    ("DBServer", "none", 7, 0xc8c5_799a_3088_d837),
    ("DBServer", "evanesco", 42, 0x617b_eccd_765e_d1d6),
    ("DBServer", "evanesco", 7, 0xe11d_e786_994e_1bcc),
    ("FileServer", "none", 42, 0x676f_66dd_15ab_200c),
    ("FileServer", "none", 7, 0xdac7_e59f_3c45_cb57),
    ("FileServer", "evanesco", 42, 0xc2ee_33c3_a99b_8704),
    ("FileServer", "evanesco", 7, 0x4956_346e_4fa4_59c4),
    ("Mobile", "none", 42, 0xe03b_5921_86bd_07dc),
    ("Mobile", "none", 7, 0x0ff0_5b5b_fadc_44de),
    ("Mobile", "evanesco", 42, 0xbb9f_4392_5202_ff14),
    ("Mobile", "evanesco", 7, 0x1601_b500_f174_f64f),
];

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        self.0 = fnv1a(self.0, b);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn causes(&mut self, c: &CauseCounts) {
        for arr in [c.total, c.secured, c.exposed] {
            arr.iter().for_each(|&v| self.u64(v));
        }
    }

    fn histogram(&mut self, h: &ExposureHistogram) {
        h.buckets.iter().for_each(|&b| self.u64(b));
        for v in [h.count, h.sum, h.max] {
            self.u64(v);
        }
    }
}

fn checkpoint_bytes(vt: &VerTrace) -> Vec<u8> {
    let mut e = Enc::new();
    vt.encode_state(&mut e);
    e.into_bytes()
}

fn digest(spec: &WorkloadSpec, policy: SanitizePolicy, seed: u64) -> u64 {
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), policy);
    let logical = ssd.logical_pages();
    let trace = generate(spec, logical, 2 * logical, seed);
    let mut vt = VerTrace::with_timelines(&ssd.config().ftl);
    replay_with(&mut ssd, &trace, &mut vt);

    let mut h = Fnv(FNV1A_OFFSET);
    h.bytes(&checkpoint_bytes(&vt));
    let r = vt.report(logical);
    for s in [&r.uv, &r.mv] {
        h.u64(s.n_files);
        for v in [s.vaf_avg, s.vaf_max, s.tinsec_avg, s.tinsec_max] {
            h.f64(v);
        }
        h.causes(&s.causes);
        h.histogram(&s.exposure);
    }
    h.causes(&r.device_causes);
    h.bytes(&checkpoint_bytes(&vt));

    for mv in [false, true] {
        let Some((id, f)) = vt.worst_file(mv) else {
            h.u64(u64::MAX);
            continue;
        };
        h.u64(u64::from(id));
        let v = &f.versions;
        for v in [v.max_valid, v.max_invalid, v.insecure_ticks, f.timeline.len() as u64] {
            h.u64(v);
        }
        for &(tick, valid, invalid) in &f.timeline {
            for v in [tick, valid, invalid] {
                h.u64(v);
            }
        }
    }
    h.0
}

/// `(spec label, policy label, seed, digest)` of every pinned cell.
fn cells() -> Vec<(String, &'static str, u64, u64)> {
    let policies = [("none", SanitizePolicy::none()), ("evanesco", SanitizePolicy::evanesco())];
    let mut out = Vec::new();
    for spec in WorkloadSpec::table2() {
        for (label, policy) in policies {
            for seed in [42, 7] {
                out.push((spec.name.to_string(), label, seed, digest(&spec, policy, seed)));
            }
        }
    }
    out
}

/// `cargo test --test exposure_golden regen -- --ignored --nocapture`
/// prints the table to paste into [`GOLDEN`].
#[test]
#[ignore = "prints fresh digests; paste them only on a reviewed accounting change"]
fn regen_exposure_golden() {
    for (spec, policy, seed, d) in cells() {
        println!("    (\"{spec}\", \"{policy}\", {seed}, 0x{d:016x}),");
    }
}

#[test]
fn exposure_accounting_matches_the_golden_digests() {
    let got = cells();
    assert_eq!(got.len(), GOLDEN.len(), "matrix shape changed");
    for ((spec, policy, seed, d), want) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (spec.as_str(), *policy, *seed, format!("{d:016x}")),
            (want.0, want.1, want.2, format!("{:016x}", want.3)),
            "exposure accounting diverged from the checked-in digest (got, want)"
        );
    }
}
