//! Beyond-the-paper experiments (DESIGN.md §7): policy ablations, the
//! §5.4 future-work studies, and seed-stability analysis.

use crate::Options;
use cce_core::{
    AdaptiveUnits, AffinityUnits, CodeCache, FineFifo, Generational, LruCache, PreemptiveFlush,
    UnitFifo,
};
use cce_sim::pressure::capacity_for_pressure;
use cce_sim::report::{pct, TextTable};
use cce_sim::seeds::over_seeds;
use cce_sim::simulator::{SimConfig, SimResult};
use cce_sim::Replay;
use cce_workloads::catalog;
use std::fmt::Write as _;

/// Benchmarks used by the extension studies: small, medium, large.
const ABLATION_BENCHMARKS: [&str; 3] = ["gzip", "crafty", "gcc"];

fn run_policy(trace: &cce_dbt::TraceLog, label: &str, cache: CodeCache) -> SimResult {
    Replay::new(trace)
        .session(cache, label)
        .run()
        .map(cce_sim::ReplayReport::into_solo)
        .expect("generated traces are well-formed")
}

fn policy_lineup(capacity: u64) -> Vec<(&'static str, CodeCache)> {
    vec![
        (
            "FLUSH",
            CodeCache::new(Box::new(
                UnitFifo::flush_policy(capacity).expect("capacity > 0"),
            )),
        ),
        (
            "preemptive",
            CodeCache::new(Box::new(
                PreemptiveFlush::new(capacity).expect("capacity > 0"),
            )),
        ),
        (
            "8-unit",
            CodeCache::new(Box::new(
                UnitFifo::new(capacity, 8).expect("capacity covers 8 units"),
            )),
        ),
        (
            "affinity-8",
            CodeCache::new(Box::new(
                AffinityUnits::new(capacity, 8).expect("capacity covers 8 units"),
            )),
        ),
        (
            "adaptive",
            CodeCache::new(Box::new(
                AdaptiveUnits::new(capacity, 8, 1, 256).expect("valid bounds"),
            )),
        ),
        (
            "generational",
            CodeCache::new(Box::new(Generational::new(capacity).expect("capacity > 0"))),
        ),
        (
            "fine FIFO",
            CodeCache::new(Box::new(FineFifo::new(capacity).expect("capacity > 0"))),
        ),
        (
            "LRU",
            CodeCache::new(Box::new(LruCache::new(capacity).expect("capacity > 0"))),
        ),
    ]
}

/// Policy ablation: every organization in the workspace on the same
/// traces at pressure 6.
pub fn ablation(opts: &Options) -> String {
    let mut out = String::new();
    for name in ABLATION_BENCHMARKS {
        let model = catalog::by_name(name).expect("table 1 benchmark");
        if opts.verbose {
            eprintln!("  [ablation] {name}…");
        }
        let trace = model.trace(opts.scale, opts.seed);
        let capacity = capacity_for_pressure(trace.max_cache_bytes(), 6);
        let mut t = TextTable::new(
            &format!("Ablation — {name} @ pressure 6 ({capacity} B)"),
            [
                "policy",
                "miss rate",
                "evictions",
                "unlink ops",
                "overhead vs FLUSH",
            ],
        );
        let mut flush_overhead = None;
        for (label, cache) in policy_lineup(capacity) {
            let r = run_policy(&trace, label, cache);
            let base = *flush_overhead.get_or_insert(r.total_overhead());
            t.row([
                label.to_owned(),
                pct(r.stats.miss_rate()),
                r.stats.eviction_invocations.to_string(),
                r.stats.unlink_operations.to_string(),
                format!("{:.1}%", r.total_overhead() / base * 100.0),
            ]);
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }
    out.push_str(
        "Reading: the paper's spectrum (FLUSH / 8-unit / fine FIFO) brackets the\n\
         extensions. The preemptive flush tracks FLUSH; affinity placement\n\
         undercuts 8-unit misses (better unit packing) at the price of more\n\
         unlink traffic; LRU buys good miss rates with recency bookkeeping and\n\
         fragmentation stalls; and the generational split pays a steep price at\n\
         this pressure — its static nursery partition wastes scarce capacity,\n\
         confirming that generation sizing only pays off in roomier caches.\n",
    );
    out
}

/// §5.4 future work: link-affinity placement vs plain unit FIFO, and the
/// adaptive granularity controller.
pub fn future_work(opts: &Options) -> String {
    let mut out = String::new();
    let mut t = TextTable::new(
        "Future work §5.4 — link-affinity placement vs plain N-unit FIFO",
        [
            "benchmark",
            "units",
            "pressure",
            "inter-unit links (plain)",
            "inter-unit links (affinity)",
            "unlink ops (plain)",
            "unlink ops (affinity)",
            "miss (plain)",
            "miss (affinity)",
        ],
    );
    for name in ABLATION_BENCHMARKS {
        let model = catalog::by_name(name).expect("table 1 benchmark");
        if opts.verbose {
            eprintln!("  [future_work] {name}…");
        }
        let trace = model.trace(opts.scale, opts.seed);
        let max_block = trace
            .superblocks
            .iter()
            .map(|s| u64::from(s.size))
            .max()
            .unwrap_or(1);
        for units in [8u32, 32] {
            for pressure in [2u32, 10] {
                let capacity = capacity_for_pressure(trace.max_cache_bytes(), pressure);
                // Clamp so every unit can hold the largest superblock
                // (same rule as the pressure sweeps).
                let fit = u32::try_from((capacity / max_block).max(1)).unwrap_or(u32::MAX);
                let eff = units.min(fit);
                let plain = run_policy(
                    &trace,
                    "plain",
                    CodeCache::new(Box::new(UnitFifo::new(capacity, eff).expect("units fit"))),
                );
                let affinity = run_policy(
                    &trace,
                    "affinity",
                    CodeCache::new(Box::new(
                        AffinityUnits::new(capacity, eff).expect("units fit"),
                    )),
                );
                t.row([
                    name.to_owned(),
                    if eff == units {
                        units.to_string()
                    } else {
                        format!("{units}→{eff}")
                    },
                    pressure.to_string(),
                    pct(plain.census_inter_fraction()),
                    pct(affinity.census_inter_fraction()),
                    plain.stats.unlink_operations.to_string(),
                    affinity.stats.unlink_operations.to_string(),
                    pct(plain.stats.miss_rate()),
                    pct(affinity.stats.miss_rate()),
                ]);
            }
        }
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nMeasured answer to the paper's open question: joint placement consistently\n\
         *improves miss rates* (hinted blocks fill partially-empty units, so effective\n\
         capacity rises), but it does **not** reduce inter-unit link traffic — plain\n\
         N-unit FIFO already co-locates temporally adjacent insertions, and scattering\n\
         insertions toward partners breaks that stream locality as often as it helps.\n\
         Insertion order, not link-aware placement, dominates link locality.\n",
    );
    out
}

/// Seed-stability: the headline FLUSH-vs-FIFO miss-rate gap across seeds.
pub fn stability(opts: &Options) -> String {
    let mut t = TextTable::new(
        "Seed stability — miss-rate gap (FLUSH − fine FIFO) at pressure 2, 6 seeds",
        ["benchmark", "mean gap", "95% CI", "stable sign"],
    );
    for name in ["gzip", "crafty", "gcc", "word"] {
        let model = catalog::by_name(name).expect("table 1 benchmark");
        if opts.verbose {
            eprintln!("  [stability] {name}…");
        }
        // Use a reduced scale so six seeds stay fast even for word.
        let scale = (opts.scale * 0.5).clamp(0.02, 0.3);
        let series = over_seeds(0..6, |seed| {
            let trace = model.trace(scale, seed);
            let cap = capacity_for_pressure(trace.max_cache_bytes(), 2);
            let flush = run_policy(
                &trace,
                "FLUSH",
                CodeCache::new(Box::new(UnitFifo::flush_policy(cap).expect("cap > 0"))),
            );
            let fine = run_policy(
                &trace,
                "FIFO",
                CodeCache::new(Box::new(FineFifo::new(cap).expect("cap > 0"))),
            );
            flush.stats.miss_rate() - fine.stats.miss_rate()
        })
        .expect("six samples");
        t.row([
            name.to_owned(),
            format!("{:+.3}pp", series.mean * 100.0),
            format!(
                "[{:+.3}, {:+.3}]pp",
                series.ci95_low * 100.0,
                series.ci95_high * 100.0
            ),
            if series.ci95_low > 0.0 { "yes" } else { "no" }.to_owned(),
        ]);
    }
    let mut out = t.to_string();
    let _ = writeln!(
        out,
        "\nA strictly positive CI means FLUSH misses more than fine FIFO for every \
         seed — the Figure 6 ordering is not a sampling artifact."
    );
    out
}

/// Multiprogramming study (§2.3's motivation): several applications
/// time-sharing one code cache, across granularities and context-switch
/// rates.
pub fn multiprog(opts: &Options) -> String {
    use cce_core::Granularity;
    use cce_workloads::mix::interleave;

    let apps = ["gzip", "crafty", "gcc"];
    if opts.verbose {
        eprintln!("  [multiprog] mixing {apps:?}…");
    }
    let traces: Vec<cce_dbt::TraceLog> = apps
        .iter()
        .map(|n| {
            catalog::by_name(n)
                .expect("table 1 benchmark")
                .trace(opts.scale, opts.seed)
        })
        .collect();

    let mut t = TextTable::new(
        "Multiprogramming — three apps sharing one cache (pressure 8)",
        [
            "granularity",
            "slice 20 miss",
            "slice 200 miss",
            "slice 2000 miss",
            "evictions @200",
        ],
    );
    let slices = [20usize, 200, 2000];
    for g in [
        Granularity::Flush,
        Granularity::units(2),
        Granularity::units(8),
        Granularity::units(64),
        Granularity::Superblock,
    ] {
        let mut row = vec![g.label()];
        let mut evictions = 0;
        for &slice in &slices {
            let mixed = interleave(&traces, slice);
            let capacity = capacity_for_pressure(mixed.max_cache_bytes(), 8);
            let max_block = mixed
                .superblocks
                .iter()
                .map(|s| u64::from(s.size))
                .max()
                .unwrap_or(1);
            let eff = cce_sim::pressure::effective_granularity(g, capacity, max_block);
            let r = Replay::new(&mixed)
                .granularity(eff)
                .capacity(capacity)
                .run()
                .map(cce_sim::ReplayReport::into_solo)
                .expect("mixed trace is well-formed");
            row.push(pct(r.stats.miss_rate()));
            if slice == 200 {
                evictions = r.stats.eviction_invocations;
            }
        }
        row.push(evictions.to_string());
        t.row(row);
    }
    let mut out = t.to_string();
    out.push_str(
        "\nReading: the granularity ordering of the single-program study carries over\n\
         to the multiprogrammed setting — the regime §2.3 argues makes bounded\n\
         caches (and therefore eviction policy) matter — and shorter time slices\n\
         (faster context switching) push miss rates up, most visibly for the\n\
         coarse policies whose flushes wipe all co-resident applications at once.\n",
    );
    out
}

/// Reuse-distance analysis: the analytic miss floor under Figure 7.
pub fn analysis(opts: &Options) -> String {
    use cce_sim::analysis::reuse_profile;

    let mut t = TextTable::new(
        "Reuse-distance analysis — why the miss curves look the way they do",
        [
            "benchmark",
            "median reuse (KB)",
            "p90 reuse (KB)",
            "floor @p2",
            "FIFO @p2",
            "floor @p10",
            "FIFO @p10",
        ],
    );
    for name in ["gzip", "crafty", "gcc", "word"] {
        let model = catalog::by_name(name).expect("table 1 benchmark");
        if opts.verbose {
            eprintln!("  [analysis] {name}…");
        }
        let trace = model.trace(opts.scale, opts.seed);
        let profile = reuse_profile(&trace);
        let max_cache = trace.max_cache_bytes();
        // Same capacity rule as the simulator (incl. the minimum floor).
        let floor = |p: u32| profile.miss_rate_bound(capacity_for_pressure(max_cache, p));
        let fifo = |p: u32| {
            Replay::new(&trace)
                .config(&SimConfig::default())
                .granularity(cce_core::Granularity::Superblock)
                .pressure(p)
                .run()
                .expect("valid trace")
                .into_solo()
                .stats
                .miss_rate()
        };
        let kb = |q: f64| {
            profile
                .quantile(q)
                .map_or("-".to_owned(), |d| format!("{:.1}", d as f64 / 1024.0))
        };
        t.row([
            name.to_owned(),
            kb(0.5),
            kb(0.9),
            pct(floor(2)),
            pct(fifo(2)),
            pct(floor(10)),
            pct(fifo(10)),
        ]);
    }
    let mut out = t.to_string();
    out.push_str(
        "\nThe floor is the Mattson bound from the trace's byte reuse distances —\n\
         exact for LRU, and a tight heuristic for FIFO (which can occasionally dip\n\
         under it, since its retention counts insertions, not touches). The small\n\
         floor-to-FIFO gap says fine FIFO is near-optimal for these traces; the\n\
         growth of the floor itself from p2 to p10 is the irreducible part of\n\
         Figure 7.\n",
    );
    out
}
