//! Secure-delete latency vs file size — the paper's §5.4 motivating
//! arithmetic measured end-to-end:
//!
//! > "if a user wants to securely delete a 1-GiB file from a flash-based
//! > storage system with 16-KiB page size, 65,536 consecutive pLock
//! > commands are needed, which can introduce significant delay […] a
//! > single bLock command can sanitize all the pages in a block at once."

use evanesco_ftl::SanitizePolicy;
use evanesco_nand::timing::Nanos;
use evanesco_ssd::{Emulator, SsdConfig};
use std::fmt::Write;

fn delete_cost(policy: SanitizePolicy, npages: u64) -> (Nanos, u64, u64) {
    // Enough capacity for the largest file: 65,536 pages needs ≥114 blocks.
    let mut ssd = Emulator::new(SsdConfig::scaled(24), policy);
    assert!(npages <= ssd.logical_pages(), "file larger than the device");
    ssd.write(0, npages, true);
    let before = ssd.result();
    ssd.trim(0, npages);
    let after = ssd.result();
    let d = after.since(&before);
    (d.sim_time, d.plocks, d.blocks_locked)
}

/// Delete-latency table (secSSD vs secSSD_nobLock) over file sizes.
pub fn delete_latency() -> String {
    let mut out = String::new();
    writeln!(out, "== Secure-delete latency vs file size (paper §5.4 arithmetic) ==").unwrap();
    writeln!(
        out,
        "{:>10} {:>9} | {:>12} {:>8} {:>8} | {:>12} {:>8}",
        "file", "pages", "nobLock time", "pLocks", "", "secSSD time", "locks"
    )
    .unwrap();
    for npages in [64u64, 512, 4096, 65_536] {
        let mib = npages * 16 / 1024;
        let (t_nob, p_nob, _) = delete_cost(SanitizePolicy::evanesco_no_block(), npages);
        let (t_sec, p_sec, b_sec) = delete_cost(SanitizePolicy::evanesco(), npages);
        writeln!(
            out,
            "{:>9}M {:>9} | {:>12} {:>8} {:>8} | {:>12} {:>8}",
            mib,
            npages,
            t_nob.to_string(),
            p_nob,
            "",
            t_sec.to_string(),
            p_sec + b_sec
        )
        .unwrap();
    }
    writeln!(
        out,
        "\npaper arithmetic for a 1-GiB file: 65,536 pLocks x 100us = 6.55s of lock\n\
         time, vs ~114 bLocks x 300us = 34ms. The measured deletes include the\n\
         trim bookkeeping and chip parallelism, so secSSD's wall time is the\n\
         lock time divided across 8 chips. Small files fall back to pLocks:\n\
         their pages sit in still-open blocks, which must not be bLocked."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gib_delete_matches_paper_arithmetic() {
        let (t_nob, plocks, _) = delete_cost(SanitizePolicy::evanesco_no_block(), 65_536);
        assert_eq!(plocks, 65_536, "one pLock per page");
        // 65,536 pLocks x 100us spread over 8 chips ≈ 0.82s of per-chip time.
        let secs = t_nob.as_secs_f64();
        assert!((0.5..=8.0).contains(&secs), "nobLock 1-GiB delete took {secs}s");

        let (t_sec, p_sec, b_sec) = delete_cost(SanitizePolicy::evanesco(), 65_536);
        assert!(b_sec >= 100, "a 1-GiB delete should be mostly bLocks: {b_sec}");
        assert!(p_sec < 2_000, "few residual pLocks: {p_sec}");
        // Two orders of magnitude faster, as the paper's arithmetic implies.
        assert!(
            t_sec.as_secs_f64() * 20.0 < t_nob.as_secs_f64(),
            "secSSD {t_sec} vs nobLock {t_nob}"
        );
    }

    #[test]
    fn table_renders() {
        let s = delete_latency();
        assert!(s.contains("65536"));
        assert!(s.contains("1-GiB"));
    }
}
