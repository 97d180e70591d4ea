//! Ablation studies for the design choices called out in DESIGN.md.

use crate::scale::Scale;
use evanesco_core::calibration::DesignPoint;
use evanesco_core::dse::RETENTION_REQUIREMENT_DAYS;
use evanesco_core::majority::transistor_estimate;
use evanesco_core::pap::majority_failure_prob;
use evanesco_ftl::SanitizePolicy;
use evanesco_ssd::Emulator;
use evanesco_workloads::generate::generate;
use evanesco_workloads::replay::replay;
use evanesco_workloads::WorkloadSpec;
use std::fmt::Write;

/// Ablation: flag-cell redundancy `k` — retention robustness vs area.
pub fn ablation_k() -> String {
    let mut out = String::new();
    writeln!(out, "== Ablation: pAP flag redundancy k (5-year majority-failure prob) ==").unwrap();
    writeln!(
        out,
        "{:<6} {:>16} {:>16} {:>14}",
        "k", "selected(Vp4)", "weak(Vp3,100)", "transistors"
    )
    .unwrap();
    for k in [1usize, 3, 5, 7, 9, 11] {
        let sel = majority_failure_prob(DesignPoint::new(4, 100), RETENTION_REQUIREMENT_DAYS, k);
        let weak = majority_failure_prob(DesignPoint::new(3, 100), RETENTION_REQUIREMENT_DAYS, k);
        writeln!(out, "{:<6} {:>16.3e} {:>16.3e} {:>14}", k, sel, weak, transistor_estimate(k))
            .unwrap();
    }
    writeln!(
        out,
        "\nthe paper's k = 9 leaves orders of magnitude of margin at the selected point\n\
         while the majority gate stays ~200 transistors."
    )
    .unwrap();
    out
}

/// Ablation: bLock trigger threshold (minimum pending pLocks before the
/// lock manager prefers one bLock).
pub fn ablation_blocktrig(scale: &Scale) -> String {
    let mut out = String::new();
    writeln!(out, "== Ablation: bLock trigger threshold (Mobile workload) ==").unwrap();
    writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>14} {:>12}",
        "min_pLocks", "pLocks", "bLocks", "lock time[ms]", "norm IOPS"
    )
    .unwrap();
    let base_cfg = scale.ssd_config();
    let logical = base_cfg.ftl.logical_pages();
    let spec = WorkloadSpec::mobile();
    let trace = generate(&spec, logical, scale.main_write_pages(logical), scale.seed);
    // Baseline for normalization.
    let mut base_ssd = Emulator::new(base_cfg, SanitizePolicy::none());
    let base = replay(&mut base_ssd, &trace);
    // Mobile's trims arrive in large per-block groups, so only thresholds
    // beyond those group sizes (or "never") change the decision.
    for min in [1usize, 4, 64, 192, 384, usize::MAX] {
        let mut cfg = scale.ssd_config();
        cfg.ftl.block_min_plocks = min;
        let mut ssd = Emulator::new(cfg, SanitizePolicy::evanesco());
        let r = replay(&mut ssd, &trace);
        let t = cfg.ftl.timing;
        let lock_ms = (r.plocks * t.t_plock.0 + r.blocks_locked * t.t_block.0) as f64 / 1e6;
        let label = if min == usize::MAX { "never".to_string() } else { min.to_string() };
        writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>14.2} {:>12.4}",
            label,
            r.plocks,
            r.blocks_locked,
            lock_ms,
            r.iops_vs(&base)
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nthe paper's rule (threshold 4 = ceil(tbLock/tpLock)+1) minimizes total lock\n\
         time; 'never' reproduces secSSD_nobLock."
    )
    .unwrap();
    out
}

/// Ablation: lazy vs eager GC erase — T_insecure exposure vs open-interval
/// reliability.
pub fn ablation_lazy(scale: &Scale) -> String {
    use evanesco_workloads::replay::replay_with;
    use evanesco_workloads::vertrace::VerTrace;

    let mut out = String::new();
    writeln!(out, "== Ablation: lazy vs eager GC erase (baseline FTL, FileServer) ==").unwrap();
    writeln!(
        out,
        "{:<8} {:>10} {:>14} {:>18} {:>20}",
        "mode", "erases", "UV Tins avg", "mean open intvl", "invalid pages left"
    )
    .unwrap();
    for eager in [false, true] {
        let mut cfg = scale.ssd_config();
        cfg.ftl.eager_gc_erase = eager;
        let mut ssd = Emulator::new(cfg, SanitizePolicy::none());
        let logical = ssd.logical_pages();
        let trace = generate(
            &WorkloadSpec::file_server(),
            logical,
            scale.main_write_pages(logical),
            scale.seed,
        );
        let mut vt = VerTrace::new(&cfg.ftl);
        let r = replay_with(&mut ssd, &trace, &mut vt);
        let report = vt.report(logical);
        let open = ssd
            .device_mut()
            .mean_open_interval()
            .map(|n| n.to_string())
            .unwrap_or_else(|| "-".to_string());
        writeln!(
            out,
            "{:<8} {:>10} {:>14.4} {:>18} {:>20}",
            if eager { "eager" } else { "lazy" },
            r.erases,
            report.uv.tinsec_avg,
            open,
            ssd.ftl().invalid_pages()
        )
        .unwrap();
    }
    writeln!(
        out,
        "\neager erase shortens the insecure window but lengthens nothing else it can\n\
         control — the cost is the erase-to-program open interval (paper Fig. 10: up to\n\
         +30% RBER), which lazy erase keeps near zero. Evanesco closes the insecure\n\
         window *without* giving up lazy erase."
    )
    .unwrap();
    out
}

/// Ablation: GC victim-selection policy sensitivity of the Figure-14
/// ratios (greedy vs cost-benefit).
pub fn ablation_gc(scale: &Scale) -> String {
    use evanesco_ftl::config::GcVictimPolicy;

    let mut out = String::new();
    writeln!(out, "== Ablation: GC victim policy (DBServer workload) ==").unwrap();
    writeln!(
        out,
        "{:<14} {:>12} {:>10} {:>10} {:>16}",
        "victim policy", "policy", "WAF", "erases", "norm IOPS"
    )
    .unwrap();
    let base_cfg = scale.ssd_config();
    let logical = base_cfg.ftl.logical_pages();
    let trace =
        generate(&WorkloadSpec::db_server(), logical, scale.main_write_pages(logical), scale.seed);
    for victim in [GcVictimPolicy::Greedy, GcVictimPolicy::CostBenefit] {
        let mut cfg = scale.ssd_config();
        cfg.ftl.gc_victim = victim;
        let mut base_ssd = Emulator::new(cfg, SanitizePolicy::none());
        let base = replay(&mut base_ssd, &trace);
        for policy in [SanitizePolicy::evanesco(), SanitizePolicy::scrub()] {
            let mut ssd = Emulator::new(cfg, policy);
            let r = replay(&mut ssd, &trace);
            writeln!(
                out,
                "{:<14} {:>12} {:>10.3} {:>10} {:>16.4}",
                format!("{victim:?}"),
                policy.to_string(),
                r.waf,
                r.erases,
                r.iops_vs(&base)
            )
            .unwrap();
        }
    }
    writeln!(
        out,
        "\nthe secSSD-vs-scrSSD gap is insensitive to the victim policy: the cost is\n\
         sanitization traffic, not GC heuristics."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_gc_runs_both_policies() {
        let s = ablation_gc(&Scale::smoke());
        assert!(s.contains("Greedy"));
        assert!(s.contains("CostBenefit"));
    }

    #[test]
    fn ablation_k_shows_margin_growth() {
        let s = ablation_k();
        assert!(s.contains("transistors"));
        assert!(s.lines().count() > 8);
    }

    #[test]
    fn ablation_blocktrig_includes_never() {
        let s = ablation_blocktrig(&Scale::smoke());
        assert!(s.contains("never"));
    }

    #[test]
    fn ablation_lazy_contrasts_modes() {
        let s = ablation_lazy(&Scale::smoke());
        assert!(s.contains("lazy"));
        assert!(s.contains("eager"));
    }
}
