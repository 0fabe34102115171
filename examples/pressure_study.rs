//! Pressure study: one benchmark across the full (granularity × pressure)
//! grid — a per-benchmark version of the paper's Figures 7/11.
//!
//! Run with: `cargo run --release --example pressure_study [benchmark]`

use cce::core::Granularity;
use cce::sim::pressure::default_pressures;
use cce::sim::report::TextTable;
use cce::sim::Replay;
use cce::workloads::catalog;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "crafty".to_owned());
    let model = catalog::by_name(&name)
        .ok_or_else(|| format!("unknown benchmark {name}; try one of Table 1"))?;
    eprintln!("generating {name} trace…");
    let trace = model.trace(0.5, 7);
    let granularities = Granularity::spectrum(6); // FLUSH … 64-unit, FIFO
    let pressures = default_pressures();

    let points = Replay::matrix(std::slice::from_ref(&trace))
        .granularities(&granularities)
        .pressures(&pressures)
        .run()?;

    // Miss-rate table.
    let mut headers = vec!["granularity".to_owned()];
    headers.extend(pressures.iter().map(|p| format!("p={p}")));
    let mut misses = TextTable::new(&format!("{name}: miss rate"), headers.clone());
    let mut overheads = TextTable::new(
        &format!("{name}: management overhead relative to FLUSH (incl. links)"),
        headers,
    );
    for g in &granularities {
        let mut mrow = vec![g.label()];
        let mut orow = vec![g.label()];
        for &p in &pressures {
            let cell = points
                .iter()
                .find(|pt| pt.cell.granularity == *g && pt.cell.pressure == p)
                .expect("full grid");
            mrow.push(format!("{:.2}%", cell.result.stats.miss_rate() * 100.0));
            let flush = points
                .iter()
                .find(|pt| pt.cell.granularity == granularities[0] && pt.cell.pressure == p)
                .expect("full grid");
            orow.push(format!(
                "{:.0}%",
                cell.result.total_overhead() / flush.result.total_overhead() * 100.0
            ));
        }
        misses.row(mrow);
        overheads.row(orow);
    }
    println!("{misses}");
    println!("{overheads}");
    println!(
        "Reading: the overhead minimum sits at a medium unit count, and fine FIFO's \
         advantage over FLUSH shrinks (or reverses) as pressure rises — the paper's headline."
    );
    Ok(())
}
