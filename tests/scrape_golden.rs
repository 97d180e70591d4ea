//! Golden pin for the counter records' two outward forms: the Prometheus
//! scrape text (name, help, value of every `FtlStats`, `RecoveryReport`,
//! `FaultStats` and `WatchdogStats` counter) and the checkpoint bytes (their
//! wire order). Two runs digest both: `evanesco` (fault and chaos storms,
//! lock coalescing, every observer, a stalling watchdog, qd 8 traffic
//! across eight power cuts and recoveries) and the plain `none` baseline.
//! Between them every counter but [`UNREACHED`] is nonzero, so a value
//! written under the wrong name or into the wrong wire slot moves a digest.

use evanesco::core::fault::{CorruptionConfig, FaultConfig};
use evanesco::ftl::SanitizePolicy;
use evanesco::nand::timing::Nanos;
use evanesco::ssd::{DeadlineConfig, Emulator, HostOp, SsdConfig};

/// `(run, scrape digest, checkpoint digest)`, in [`runs`] order.
const GOLDEN: [(&str, u64, u64); 2] = [
    ("evanesco", 0xb12e_30a8_22be_7e35, 0xd9fa_398d_8dfb_1afe),
    ("none", 0xac29_161b_4ca8_85c8, 0x81bb_3b22_5867_84b0),
];

/// Counters neither run moves: `meta_unrecoverable` counts a guard repair
/// that fails its own post-verification, which only the FTL's
/// `guard_force_unrecoverable` test hook provokes.
const UNREACHED: [&str; 1] = ["meta_unrecoverable"];

fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `n` requests over the logical space: 5/8 writes (1 in 16 insecure),
/// 1/8 trims, 2/8 reads, one to three pages each.
fn traffic(seed: u64, n: usize, logical: u64) -> Vec<HostOp> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = x >> 33;
            let npages = 1 + (r >> 8) % 3;
            let lpa = (r >> 12) % (logical - npages);
            match r % 8 {
                0..=4 => HostOp::Write { lpa, npages, secure: r % 16 != 3 },
                5 => HostOp::Trim { lpa, npages },
                _ => HostOp::Read { lpa, npages },
            }
        })
        .collect()
}

fn evanesco_run() -> Emulator {
    let mut cfg = SsdConfig::tiny_for_tests();
    cfg.ftl.lock_coalescing = true;
    cfg.ftl.faults = FaultConfig {
        erase_fail: 0.15,
        plock_fail: 0.5,
        block_lock_fail: 0.8,
        read_unc: 0.4,
        read_retry_decay: 1.0,
        ..FaultConfig::storm(0.2, 13)
    };
    let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
    ssd.enable_gauges();
    ssd.enable_tracing(64);
    ssd.enable_anatomy(64, 8);
    ssd.enable_watchdog(DeadlineConfig::for_tests(5, 0.2));
    ssd.enable_chaos(CorruptionConfig::storm(0.02, 3));
    let logical = ssd.logical_pages();
    ssd.run_scheduled(&traffic(1, 600, logical), 8);
    for i in 0..8 {
        let now = ssd.device().simulated_time();
        ssd.power_cut_at(now + Nanos::from_micros(150 + i * 977));
        ssd.run_scheduled(&traffic(10 + i, 200, logical), 8);
        ssd.recover();
    }
    ssd.run_scheduled(&traffic(3, 600, logical), 8);
    ssd.chaos_finalize();
    ssd
}

fn none_run() -> Emulator {
    let mut ssd = Emulator::new(SsdConfig::tiny_for_tests(), SanitizePolicy::none());
    let logical = ssd.logical_pages();
    for op in traffic(2, 800, logical) {
        match op {
            HostOp::Write { lpa, npages, secure } => drop(ssd.write(lpa, npages, secure)),
            HostOp::Read { lpa, npages } => drop(ssd.read(lpa, npages)),
            HostOp::Trim { lpa, npages } => ssd.trim(lpa, npages),
        }
    }
    ssd
}

fn runs() -> [(&'static str, Emulator); 2] {
    [("evanesco", evanesco_run()), ("none", none_run())]
}

fn digests(runs: &[(&'static str, Emulator)]) -> Vec<(&'static str, u64, u64)> {
    let digest = |(name, ssd): &(&'static str, Emulator)| {
        (*name, fnv(ssd.prometheus_scrape().as_bytes()), fnv(&ssd.save_checkpoint()))
    };
    runs.iter().map(digest).collect()
}

/// `cargo test --test scrape_golden regen -- --ignored --nocapture`
/// prints the table to paste into [`GOLDEN`].
#[test]
#[ignore = "prints fresh digests; paste them only on a reviewed scrape or format change"]
fn regen_scrape_golden() {
    for (name, scrape, ckpt) in digests(&runs()) {
        println!("    (\"{name}\", 0x{scrape:016x}, 0x{ckpt:016x}),");
    }
}

#[test]
fn scrape_and_checkpoint_match_the_golden_digests() {
    let runs = runs();
    assert_eq!(digests(&runs), GOLDEN, "scrape or checkpoint bytes moved (got, want)");
    let families = |ssd: &Emulator| {
        let r = ssd.result();
        let mut all = r.ftl.families().to_vec();
        all.extend(r.recovery.report.families());
        all.extend(r.faults.families());
        all.extend(ssd.watchdog_stats().unwrap_or_default().families());
        all
    };
    let (a, b) = (families(&runs[0].1), families(&runs[1].1));
    let zero: Vec<&str> =
        a.iter().zip(&b).filter(|(x, y)| x.2 + y.2 == 0).map(|(x, _)| x.0).collect();
    assert_eq!(zero, UNREACHED, "counters neither run moves, so no digest pins their slot");
}
