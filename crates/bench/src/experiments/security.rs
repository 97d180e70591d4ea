//! Security experiment: the end-to-end consequence of the flag-cell
//! design-space choices (Figures 9(d)/12(b) turned into an attack).
//!
//! A locked page stays sanitized only as long as its physical flag cells
//! hold their programmed state. This experiment locks a population of
//! pages under several flag configurations, ages the chip, and counts how
//! many deleted pages a raw-chip attacker recovers — zero for the paper's
//! selected parameters, catastrophically many for the rejected corners.

use evanesco_core::bap::BapConfig;
use evanesco_core::calibration::DesignPoint;
use evanesco_core::chip::EvanescoChip;
use evanesco_core::pap::PapConfig;
use evanesco_core::threat::Attacker;
use evanesco_nand::chip::PageData;
use evanesco_nand::geometry::{Geometry, Ppa};
use std::fmt::Write;

fn leak_fraction(pap: PapConfig, bap: BapConfig, age_days: f64, seed: u64) -> f64 {
    let geom = Geometry::small_tlc();
    let mut chip = EvanescoChip::new(geom);
    chip.enable_device_flags(pap, bap, seed);
    let pages = geom.pages_per_block();
    let mut tags = Vec::new();
    for b in 0..4u32 {
        for p in 0..pages {
            let tag = (b as u64) << 32 | p as u64;
            chip.program(Ppa::new(b, p), PageData::tagged(tag)).unwrap();
            tags.push(tag);
        }
        // Blocks 0-1 sanitized page-by-page, 2-3 with bLock.
        if b < 2 {
            for p in 0..pages {
                chip.p_lock(Ppa::new(b, p)).unwrap();
            }
        } else {
            chip.b_lock(evanesco_nand::geometry::BlockId(b)).unwrap();
        }
    }
    chip.age_flags(age_days).expect("the table's ages are finite and non-negative");
    let attacker = Attacker::new();
    let recovered = attacker.recoverable_tags(&mut chip);
    recovered.iter().filter(|t| tags.contains(t)).count() as f64 / tags.len() as f64
}

/// The flag-aging attack table.
pub fn security_flagaging() -> String {
    let mut out = String::new();
    writeln!(out, "== Security: deleted-data recovery vs flag design point and age ==").unwrap();
    writeln!(out, "(4 blocks of locked pages; half pLock'd, half bLock'd; raw-chip attacker)")
        .unwrap();
    writeln!(out, "\n{:<34} {:>10} {:>10} {:>10}", "configuration", "fresh", "1 year", "5 years")
        .unwrap();
    let configs: [(&str, PapConfig, BapConfig); 4] = [
        ("paper: pAP(Vp4,100) bAP(Vb6,300)", PapConfig::paper(), BapConfig::paper()),
        (
            "weak pAP (vi): (Vp2,200)",
            PapConfig { k: 9, point: DesignPoint::new(2, 200) },
            BapConfig::paper(),
        ),
        (
            "weak bAP (vi): (Vb5,200)",
            PapConfig::paper(),
            BapConfig { point: DesignPoint::new(5, 200) },
        ),
        (
            "paper points but k = 1",
            PapConfig { k: 1, point: DesignPoint::new(4, 100) },
            BapConfig::paper(),
        ),
    ];
    for (name, pap, bap) in configs {
        write!(out, "{:<34}", name).unwrap();
        for (i, age) in [0.0, 365.0, 5.0 * 365.0].into_iter().enumerate() {
            let f = leak_fraction(pap, bap, age, 40 + i as u64);
            write!(out, "{:>9.1}%", 100.0 * f).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(
        out,
        "\nthe paper's DSE selections keep recovery at 0% through the 5-year\n\
         requirement; the rejected corners re-expose deleted data as the flag\n\
         cells detrap — this is why Figures 9(d)/12(b) gate the design."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_recovers_nothing_even_aged() {
        assert_eq!(leak_fraction(PapConfig::paper(), BapConfig::paper(), 5.0 * 365.0, 1), 0.0);
    }

    #[test]
    fn weak_bap_exposes_block_locked_data() {
        let weak = BapConfig { point: DesignPoint::new(5, 200) };
        let f = leak_fraction(PapConfig::paper(), weak, 365.0, 2);
        // The two bLock'd blocks (half the population) reopen.
        assert!(f >= 0.49, "leak fraction {f}");
    }

    #[test]
    fn table_mentions_all_configs() {
        let s = security_flagaging();
        assert!(s.contains("paper: pAP"));
        assert!(s.contains("weak pAP"));
        assert!(s.contains("weak bAP"));
        assert!(s.contains("k = 1"));
    }
}
