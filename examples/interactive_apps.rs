//! Interactive Windows applications: the workloads that stress code-cache
//! management hardest (paper §4.1 — "the rate and amount of generated
//! code in these applications tests the limits of code cache management").
//!
//! Compares FLUSH, 8-unit FIFO and fine FIFO per application at cache
//! pressure 4, including the back-pointer-table footprint.
//!
//! Run with: `cargo run --release --example interactive_apps [scale]`

use cce::core::Granularity;
use cce::sim::report::TextTable;
use cce::sim::simulator::SimConfig;
use cce::sim::Replay;
use cce::workloads::catalog;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(0.3);
    let granularities = [
        Granularity::Flush,
        Granularity::units(8),
        Granularity::Superblock,
    ];
    let mut t = TextTable::new(
        &format!("Interactive Windows applications at pressure 4 (scale {scale})"),
        [
            "app",
            "superblocks",
            "maxCache (KB)",
            "FLUSH miss",
            "8-Unit miss",
            "FIFO miss",
            "8-Unit evictions",
            "back-ptr table",
        ],
    );
    for model in catalog::windows() {
        eprintln!("  {}…", model.name);
        let trace = model.trace(scale, 11);
        let base = SimConfig::default();
        let mut miss = Vec::new();
        let mut evictions8 = 0;
        for g in granularities {
            let r = Replay::new(&trace)
                .config(&base)
                .granularity(g)
                .pressure(4)
                .run()?
                .into_solo();
            miss.push(r.stats.miss_rate());
            if g == Granularity::units(8) {
                evictions8 = r.stats.eviction_invocations;
            }
        }
        let summary = trace.summary();
        let backptr_bytes =
            (summary.mean_out_degree * summary.superblock_count as f64 * 16.0) as u64;
        t.row([
            model.name.clone(),
            summary.superblock_count.to_string(),
            format!("{:.0}", summary.total_code_bytes as f64 / 1024.0),
            format!("{:.2}%", miss[0] * 100.0),
            format!("{:.2}%", miss[1] * 100.0),
            format!("{:.2}%", miss[2] * 100.0),
            evictions8.to_string(),
            format!("{:.0} KB", backptr_bytes as f64 / 1024.0),
        ]);
    }
    println!("{t}");
    println!(
        "The big code producers (word, iexplore, powerpoint) show the largest FLUSH\n\
         penalty — exactly the workloads the paper says make bounded caches mandatory."
    );
    Ok(())
}
