//! Integration assertions on the reproduced paper results (smoke scale):
//! every experiment generator runs and passes its own gate, and the
//! qualitative shapes of the evaluation hold end-to-end.

use evanesco_bench::experiments::system::run_matrix;
use evanesco_bench::{run_experiment, Scale, EXPERIMENTS};
use evanesco_ftl::SanitizePolicy;
use evanesco_ssd::jsonlite::Json;

#[test]
fn every_experiment_generator_produces_output() {
    let scale = Scale::smoke();
    for e in &EXPERIMENTS {
        let name = e.name;
        let out = (e.run)(&scale, "smoke");
        assert!(out.text.len() > 80, "{name}: suspiciously short output:\n{}", out.text);
        assert!(out.text.contains("=="), "{name}: missing header");
        assert_eq!(out.violations, Vec::<String>::new(), "{name}: gate breached");
        assert_eq!(e.gate.is_some(), out.artifact.is_some(), "{name}: gate without artifact");
        if let Some((file, content)) = out.artifact {
            assert!(e.gate.unwrap().starts_with(file), "{name}: --help names another file");
            Json::parse(&content).unwrap_or_else(|err| panic!("{file} does not parse: {err}"));
        }
    }
}

#[test]
fn figure14_shape_matches_paper() {
    let matrix = run_matrix(&Scale::smoke());
    for w in &matrix {
        let get = |want: SanitizePolicy| {
            w.runs.iter().find(|(p, _)| *p == want).map(|(_, r)| *r).unwrap()
        };
        let er = get(SanitizePolicy::erase_based());
        let scr = get(SanitizePolicy::scrub());
        let nob = get(SanitizePolicy::evanesco_no_block());
        let sec = get(SanitizePolicy::evanesco());

        // IOPS: baseline > secSSD >= secSSD_nobLock > scrSSD > erSSD.
        assert!(sec.iops_vs(&w.baseline) < 1.0 + 1e-9, "{}", w.name);
        assert!(
            sec.iops_vs(&w.baseline) > 0.7,
            "{}: secSSD {:.3}",
            w.name,
            sec.iops_vs(&w.baseline)
        );
        assert!(
            scr.iops_vs(&w.baseline) < 0.6,
            "{}: scrSSD {:.3}",
            w.name,
            scr.iops_vs(&w.baseline)
        );
        // Mobile trims whole blocks at once, so its erase-based penalty is the
        // mildest of the four workloads (~0.2 at smoke scale); everything else
        // collapses below 0.1.
        assert!(er.iops_vs(&w.baseline) < 0.25, "{}: erSSD {:.3}", w.name, er.iops_vs(&w.baseline));
        assert!(er.iops_vs(&w.baseline) < scr.iops_vs(&w.baseline) * 0.5, "{}", w.name);
        assert!(sec.iops >= nob.iops * 0.98, "{}: bLock regressed IOPS", w.name);

        // WAF: erSSD >> scrSSD > secSSD ~= baseline.
        assert!(
            er.waf_vs(&w.baseline) > 3.0,
            "{}: erSSD WAF {:.2}",
            w.name,
            er.waf_vs(&w.baseline)
        );
        assert!(scr.waf_vs(&w.baseline) > 1.2, "{}", w.name);
        assert!(
            sec.waf_vs(&w.baseline) < 1.1,
            "{}: secSSD WAF {:.2}",
            w.name,
            sec.waf_vs(&w.baseline)
        );

        // Erases: secSSD erases fewer blocks than scrSSD and far fewer than erSSD.
        assert!(sec.erases < scr.erases, "{}", w.name);
        assert!(er.erases > scr.erases, "{}", w.name);

        // bLock replaces pLocks where it applies.
        assert!(sec.plocks <= nob.plocks, "{}", w.name);
    }

    // The bLock saving is largest for the large-file workload (Mobile).
    let saving = |name: &str| {
        let w = matrix.iter().find(|w| w.name == name).unwrap();
        let get = |want: SanitizePolicy| {
            w.runs.iter().find(|(p, _)| *p == want).map(|(_, r)| *r).unwrap()
        };
        let sec = get(SanitizePolicy::evanesco());
        let nob = get(SanitizePolicy::evanesco_no_block());
        1.0 - sec.plocks as f64 / nob.plocks.max(1) as f64
    };
    assert!(
        saving("Mobile") > saving("DBServer"),
        "Mobile {:.2} vs DBServer {:.2}",
        saving("Mobile"),
        saving("DBServer")
    );
}

#[test]
fn figure14c_fraction_sweep_shape() {
    // Fewer secured pages -> IOPS closer to baseline.
    let out = run_experiment("fig14c", &Scale::smoke());
    let line = out.lines().find(|l| l.starts_with("DBServer")).expect("DBServer row");
    let vals: Vec<f64> = line.split_whitespace().skip(1).map(|v| v.parse().unwrap()).collect();
    assert_eq!(vals.len(), 5);
    assert!(vals[0] >= vals[4] - 0.02, "60% secured should not be slower than 100%: {vals:?}");
}

#[test]
fn dse_selects_paper_parameters_end_to_end() {
    let fig9 = run_experiment("fig9", &Scale::smoke());
    assert!(fig9.contains("selected: (ii) = (Vp4, 100us)"));
    let fig12 = run_experiment("fig12", &Scale::smoke());
    assert!(fig12.contains("selected: (ii) = (Vb6, 300us)"));
}

#[test]
fn table1_versioning_shapes() {
    let out = run_experiment("table1", &Scale::smoke());
    let row = |name: &str| -> Vec<f64> {
        out.lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("{name} row missing"))
            .split_whitespace()
            .filter_map(|c| c.parse().ok())
            .collect()
    };
    let db = row("DBServer");
    let mobile = row("Mobile");
    // Columns: uv_vaf_avg uv_vaf_max uv_tins_avg uv_tins_max mv_vaf_avg ...
    assert!(db[4] > mobile[4], "DBServer MV VAF avg should dominate: {db:?} vs {mobile:?}");
    assert!(db[4] > 0.1, "DBServer MV files must accumulate versions: {db:?}");
}
