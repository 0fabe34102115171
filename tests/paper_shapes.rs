//! The paper's qualitative claims, checked at reduced scale.
//!
//! These are the assertions EXPERIMENTS.md reports at full scale; here
//! they run at a scale that keeps `cargo test` fast while still stressing
//! the caches.

use cce::core::Granularity;
use cce::sim::exectime::{ChainingScenario, DispatchCost};
use cce::sim::metrics::unified_miss_rate;
use cce::sim::simulator::SimConfig;
use cce::sim::Replay;
use cce::workloads::catalog;

const SCALE: f64 = 0.15;
const SEED: u64 = 1234;

fn unified(granularity: Granularity, pressure: u32) -> (f64, u64, f64, f64) {
    let mut pairs = Vec::new();
    let mut invocations = 0;
    let mut overhead_nolinks = 0.0;
    let mut overhead_links = 0.0;
    for m in catalog::all() {
        let trace = m.trace(SCALE, SEED);
        let r = Replay::new(&trace)
            .config(&SimConfig::default())
            .granularity(granularity)
            .pressure(pressure)
            .run()
            .expect("valid trace")
            .into_solo();
        pairs.push((r.stats.misses, r.stats.accesses));
        invocations += r.stats.eviction_invocations;
        overhead_nolinks += r.miss_overhead + r.eviction_overhead;
        overhead_links += r.total_overhead();
    }
    (
        unified_miss_rate(pairs),
        invocations,
        overhead_nolinks,
        overhead_links,
    )
}

#[test]
fn figure6_flush_misses_most_fifo_least() {
    let (flush, ..) = unified(Granularity::Flush, 2);
    let (medium, ..) = unified(Granularity::units(8), 2);
    let (fine, ..) = unified(Granularity::Superblock, 2);
    assert!(flush > medium, "FLUSH {flush} vs 8-unit {medium}");
    assert!(medium > fine, "8-unit {medium} vs FIFO {fine}");
}

#[test]
fn figure7_pressure_raises_miss_rates() {
    for g in [
        Granularity::Flush,
        Granularity::units(8),
        Granularity::Superblock,
    ] {
        let (low, ..) = unified(g, 2);
        let (high, ..) = unified(g, 10);
        assert!(high > low, "{g}: miss rate must rise with pressure");
    }
}

#[test]
fn figure8_eviction_invocations_fall_with_coarser_granularity() {
    let (_, flush, ..) = unified(Granularity::Flush, 2);
    let (_, unit8, ..) = unified(Granularity::units(8), 2);
    let (_, unit64, ..) = unified(Granularity::units(64), 2);
    let (_, fine, ..) = unified(Granularity::Superblock, 2);
    assert!(flush < unit8);
    assert!(unit8 < unit64);
    assert!(unit64 < fine);
    // Paper anchor: medium grains cut invocations by integer factors.
    assert!(fine as f64 / unit64 as f64 > 2.0);
}

#[test]
fn figures_10_14_medium_grains_beat_both_extremes_under_pressure() {
    let (_, _, flush_oh, flush_oh_l) = unified(Granularity::Flush, 10);
    let (_, _, fine_oh, fine_oh_l) = unified(Granularity::Superblock, 10);
    // The best medium grain beats FLUSH and fine FIFO (with and without
    // link-maintenance charges).
    let mut best = f64::INFINITY;
    let mut best_l = f64::INFINITY;
    for units in [4u32, 8, 16, 32] {
        let (_, _, oh, oh_l) = unified(Granularity::units(units), 10);
        best = best.min(oh);
        best_l = best_l.min(oh_l);
    }
    assert!(best < flush_oh, "medium {best} vs FLUSH {flush_oh}");
    assert!(best < fine_oh, "medium {best} vs FIFO {fine_oh}");
    assert!(best_l < flush_oh_l);
    assert!(best_l < fine_oh_l);
}

#[test]
fn figures_11_15_fine_fifo_advantage_shrinks_with_pressure() {
    let (_, _, _, flush_low) = unified(Granularity::Flush, 2);
    let (_, _, _, fine_low) = unified(Granularity::Superblock, 2);
    let (_, _, _, flush_high) = unified(Granularity::Flush, 10);
    let (_, _, _, fine_high) = unified(Granularity::Superblock, 10);
    let ratio_low = fine_low / flush_low;
    let ratio_high = fine_high / flush_high;
    assert!(
        ratio_high > ratio_low,
        "fine/FLUSH overhead ratio must rise with pressure: {ratio_low} → {ratio_high}"
    );
}

#[test]
fn figure13_inter_unit_links_rise_with_granularity() {
    let trace = catalog::by_name("gcc").unwrap().trace(SCALE, SEED);
    let base = SimConfig::default();
    let frac = |g| {
        Replay::new(&trace)
            .config(&base)
            .granularity(g)
            .pressure(2)
            .run()
            .unwrap()
            .into_solo()
            .census_inter_fraction()
    };
    let flush = frac(Granularity::Flush);
    let two = frac(Granularity::units(2));
    let sixteen = frac(Granularity::units(16));
    let fine = frac(Granularity::Superblock);
    assert_eq!(flush, 0.0, "a single unit has no inter-unit links");
    assert!(two > 0.0);
    assert!(sixteen > two);
    assert!(
        fine > 0.9,
        "per-superblock units: almost every link crosses"
    );
    assert!(fine < 1.0, "self-links keep it under 100%");
}

#[test]
fn table2_slowdown_ordering_matches_paper() {
    let d = DispatchCost::dynamorio();
    let slowdown = |name: &str| {
        let m = catalog::by_name(name).unwrap();
        ChainingScenario {
            base_seconds: m.base_seconds,
            instrs_per_entry: m.instrs_per_entry,
        }
        .slowdown_percent(&d)
    };
    let gzip = slowdown("gzip");
    let mcf = slowdown("mcf");
    let vpr = slowdown("vpr");
    // Paper: gzip worst (3357%), mcf best (447%), vpr second best (643%).
    assert!(gzip > 2500.0);
    assert!(mcf < 600.0);
    assert!(vpr < 900.0);
    for name in [
        "gcc", "crafty", "parser", "perlbmk", "gap", "vortex", "bzip2", "twolf",
    ] {
        let s = slowdown(name);
        assert!(
            s > mcf && s < gzip,
            "{name} slowdown {s} out of Table 2's band"
        );
    }
}

#[test]
fn backpointer_table_memory_matches_section_5_1() {
    // §5.1: ~1.7 links per superblock at 16 bytes each ≈ 11.5% of the
    // code cache. Check our suite-wide ratio lands in that neighbourhood.
    let mut links = 0.0;
    let mut bytes = 0.0;
    for m in catalog::all() {
        let t = m.trace(SCALE, SEED);
        let s = t.summary();
        links += s.mean_out_degree * s.superblock_count as f64;
        bytes += s.total_code_bytes as f64;
    }
    let fraction = links * 16.0 / bytes;
    assert!(
        (0.05..0.20).contains(&fraction),
        "back-pointer table fraction {fraction} far from the paper's 11.5%"
    );
}
