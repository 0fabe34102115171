//! `grid`: the paper grid on the single-pass ladder engine.
//!
//! All 20 catalog traces × `Granularity::spectrum(8)` × pressures
//! {2,4,6,8,10} — 1000 cells — through `ReplayMatrix` with
//! `Engine::Ladder` and one worker, the way Figs. 6/7/10/11 are
//! regenerated. Each trace's 50-cell row is one timed call; a pass is
//! all 20 rows, and passes repeat until the budget is spent.

use crate::probes::{self, Cell, ProbeInput};
use crate::stats::{median, pass_totals, timed};
use crate::{repeat_setup, Ctx, Outcome};
use cce_core::Granularity;
use cce_dbt::TraceLog;
use cce_sim::{Engine, Replay, SimError, SweepPoint};
use cce_util::rng::{Rng, StdRng};
use cce_util::Json;
use cce_workloads::catalog;
use std::time::Instant;

pub const PRESSURES: [u32; 5] = [2, 4, 6, 8, 10];
const SETUP_REPS: usize = 3;
/// Seeded random cells checked against the naive engine, beyond the
/// smallest trace's full row.
const RANDOM_ORACLE_CELLS: usize = 6;

pub fn granularities() -> Vec<Granularity> {
    Granularity::spectrum(8)
}

fn row(trace: &TraceLog, engine: Engine) -> Result<Vec<SweepPoint>, SimError> {
    Replay::matrix(std::slice::from_ref(trace))
        .granularities(&granularities())
        .pressures(&PRESSURES)
        .engine(engine)
        .jobs(1)
        .run()
}

/// The naive-engine result for one cell of `trace`.
fn naive_cell(trace: &TraceLog, g: Granularity, p: u32) -> Result<Option<SweepPoint>, SimError> {
    let mut points = Replay::matrix(std::slice::from_ref(trace))
        .granularities(&[g])
        .pressures(&[p])
        .engine(Engine::Naive)
        .run()?;
    Ok(points.pop())
}

/// Cells of `ladder` that differ from their `naive` counterpart (same
/// granularity and pressure), or that have no counterpart.
pub fn mismatched_cells(ladder: &[SweepPoint], naive: &[SweepPoint]) -> usize {
    naive
        .iter()
        .filter(|n| {
            !ladder.iter().any(|l| {
                l.cell.granularity == n.cell.granularity
                    && l.cell.pressure == n.cell.pressure
                    && l.result == n.result
            })
        })
        .count()
}

struct Measured {
    /// Per trace: every row time, seconds.
    row_times: Vec<Vec<f64>>,
    /// The same times, normalised to the reference host.
    row_norm: Vec<Vec<f64>>,
    /// Traced runs only: summed time of each row's spanned twin.
    twin_s: f64,
    /// Per trace: the first pass's 50 points.
    results: Vec<Vec<SweepPoint>>,
    passes: usize,
}

/// Runs passes over every row until `seconds` are spent (at least one
/// pass). Later passes must reproduce the first pass exactly. A traced
/// run follows every row with a twin inside its span, so the two see
/// the same host conditions.
fn measure(
    ctx: &Ctx<'_>,
    traces: &[TraceLog],
    seconds: f64,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let mut m = Measured {
        row_times: vec![Vec::new(); traces.len()],
        row_norm: vec![Vec::new(); traces.len()],
        twin_s: 0.0,
        results: Vec::new(),
        passes: 0,
    };
    let t0 = Instant::now();
    loop {
        let _pass = ctx.tracer.span(format!("grid.pass{}", m.passes));
        for (i, trace) in traces.iter().enumerate() {
            let (points, secs, norm) = ctx.host.timed(|| row(trace, Engine::Ladder));
            let points = points.map_err(|e| format!("{}: {e}", trace.name))?;
            m.row_times[i].push(secs);
            m.row_norm[i].push(norm);
            out.ops += points.len() as u64;
            if ctx.traced() {
                let _row = ctx.tracer.span(format!("grid.row.{}", trace.name));
                let (twin, secs) = timed(|| row(trace, Engine::Ladder));
                m.twin_s += secs;
                if twin.map_err(|e| format!("{}: {e}", trace.name))? != points {
                    out.fail(
                        points.len() as u64,
                        format!("{}: traced twin differed", trace.name),
                    );
                }
            }
            if m.passes == 0 {
                m.results.push(points);
            } else if points != m.results[i] {
                out.fail(
                    points.len() as u64,
                    format!("{}: a later pass differed", trace.name),
                );
            }
        }
        m.passes += 1;
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(m)
}

/// Checks the ladder against the naive oracle on the smallest trace's
/// full row plus seeded random cells. Returns the naive seconds and the
/// cell-events they covered.
fn oracle(
    ctx: &Ctx<'_>,
    traces: &[TraceLog],
    results: &[Vec<SweepPoint>],
    out: &mut Outcome,
) -> Result<(f64, u64), String> {
    let _span = ctx.tracer.span("grid.oracle");
    let gs = granularities();
    let small = (0..traces.len())
        .min_by_key(|&i| traces[i].events.len())
        .ok_or("no traces")?;
    let (naive, mut naive_s) = timed(|| row(&traces[small], Engine::Naive));
    let naive = naive.map_err(|e| e.to_string())?;
    let mut cell_events = naive.len() as u64 * traces[small].events.len() as u64;
    let bad = mismatched_cells(&results[small], &naive);
    if bad > 0 {
        out.fail(
            bad as u64,
            format!(
                "{}: {bad} ladder cells differ from naive",
                traces[small].name
            ),
        );
    }
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x6772_6964);
    let mut sampled = Vec::new();
    for _ in 0..RANDOM_ORACLE_CELLS {
        let i = rng.gen_range(0..traces.len());
        let g = gs[rng.gen_range(0..gs.len())];
        let p = PRESSURES[rng.gen_range(0..PRESSURES.len())];
        sampled.push(format!("{}/{}/p{p}", traces[i].name, g.label()));
        let (point, secs) = timed(|| naive_cell(&traces[i], g, p));
        naive_s += secs;
        cell_events += traces[i].events.len() as u64;
        let point = point
            .map_err(|e| e.to_string())?
            .ok_or("naive cell missing")?;
        if mismatched_cells(&results[i], std::slice::from_ref(&point)) > 0 {
            out.fail(
                1,
                format!(
                    "{}/{}/p{p}: ladder differs from naive",
                    traces[i].name,
                    g.label()
                ),
            );
        }
    }
    out.note(
        "oracle",
        Json::obj(vec![
            ("full_row", Json::from(traces[small].name.as_str())),
            (
                "random_cells",
                Json::Arr(sampled.into_iter().map(Json::from).collect()),
            ),
        ]),
    );
    Ok((naive_s, cell_events))
}

pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let models = catalog::all();
    let (traces, setup_times, setup_norm) = repeat_setup(SETUP_REPS, ctx, || {
        Ok(models
            .iter()
            .map(|m| m.trace(ctx.scale, ctx.seed))
            .collect::<Vec<_>>())
    })?;
    let cells_per_row = (granularities().len() * PRESSURES.len()) as u64;
    let cell_events: u64 =
        traces.iter().map(|t| t.events.len() as u64).sum::<u64>() * cells_per_row;

    let m = measure(ctx, &traces, ctx.seconds, &mut out)?;
    for row in &m.results {
        for point in row {
            out.digest.add(point);
        }
    }
    let wall_s: f64 = m.row_times.iter().map(|t| median(t)).sum();
    let norm_wall_s: f64 = m.row_norm.iter().map(|t| median(t)).sum();
    let pass_ms: Vec<f64> = pass_totals(&m.row_times).iter().map(|s| s * 1e3).collect();
    let (naive_s, naive_events) = oracle(ctx, &traces, &m.results, &mut out)?;

    out.note(
        "grid",
        Json::obj(vec![
            ("traces", Json::from(traces.len())),
            ("cells", Json::from(cells_per_row as usize * traces.len())),
            ("cell_events", Json::from(cell_events)),
            ("passes", Json::from(m.passes)),
            (
                "pass_ms",
                Json::Arr(pass_ms.iter().map(|&x| Json::from(x)).collect()),
            ),
        ]),
    );

    if ctx.traced() {
        let small = traces
            .iter()
            .min_by_key(|t| t.events.len())
            .ok_or("no traces")?;
        let cells = [
            Granularity::Superblock,
            Granularity::units(8),
            Granularity::Flush,
        ]
        .into_iter()
        .map(|granularity| Cell {
            trace: small,
            granularity,
            pressure: 10,
            shards: 1,
        })
        .collect();
        let input = ProbeInput {
            traces: traces.iter().collect(),
            cells,
            tenants_trace: small,
            serve_trace: small,
            serve_run: true,
        };
        probes::run_all(ctx, &input, &mut out)?;
        out.metric("workloads.trace_gen_s", median(&setup_times));
        let ladder_ns = wall_s * 1e9 / cell_events as f64;
        let naive_ns = naive_s * 1e9 / naive_events.max(1) as f64;
        out.metric("sim.ladder.ns_per_cell_event", ladder_ns);
        out.metric("sim.sweep.naive_ns_per_cell_event", naive_ns);
        out.metric("sim.ladder.speedup_vs_naive", naive_ns / ladder_ns);
        let plain_s: f64 = m.row_times.iter().flatten().sum();
        out.metric("trace.overhead_share", (m.twin_s - plain_s) / plain_s);
    } else {
        out.end_to_end(
            [median(&setup_times), median(&setup_norm)],
            [wall_s, norm_wall_s],
            [
                cell_events as f64 / wall_s,
                cell_events as f64 / norm_wall_s,
            ],
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_flags_a_perturbed_cell() {
        let trace = catalog::by_name("mcf").unwrap().trace(0.05, 2);
        let ladder = row(&trace, Engine::Ladder).unwrap();
        let naive = row(&trace, Engine::Naive).unwrap();
        assert_eq!(mismatched_cells(&ladder, &naive), 0);
        let mut perturbed = ladder.clone();
        perturbed[7].result.stats.misses += 1;
        assert_eq!(mismatched_cells(&perturbed, &naive), 1);
        perturbed[9].result.eviction_overhead += 1e-9;
        assert_eq!(mismatched_cells(&perturbed, &naive), 2);
    }
}
