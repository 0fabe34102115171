//! `replay`: trace file → decode → replay → `SimResult`, streamed.
//!
//! The two largest SPEC-like and desktop traces (`gcc`, `word`) are
//! encoded with `trace_bin::save_binary` in set-up; each measured cell
//! streams one through `TraceReader` → `Replay::stream` at pressure 10
//! for the fine FIFO, 8-unit and FLUSH granularities. Passes over the
//! six cells repeat until the budget is spent.

use crate::probes::{self, Cell, ProbeInput};
use crate::stats::{median, pass_totals, timed};
use crate::tracer::SessionCounters;
use crate::{repeat_setup, Ctx, Outcome};
use cce_core::Granularity;
use cce_dbt::{trace_bin, TraceLog, TraceReader};
use cce_sim::{Replay, SimError, SimResult};
use cce_util::Json;
use cce_workloads::catalog;
use std::io::Cursor;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const TRACES: [&str; 2] = ["gcc", "word"];
pub const PRESSURE: u32 = 10;
const SETUP_REPS: usize = 5;

pub fn granularities() -> [Granularity; 3] {
    [
        Granularity::Superblock,
        Granularity::units(8),
        Granularity::Flush,
    ]
}

struct Setup {
    logs: Vec<TraceLog>,
    encoded: Vec<Arc<[u8]>>,
}

/// Streams one encoded trace through `Replay::stream`. With `timers`,
/// the cache sits behind the per-call timing wrapper.
fn stream_cell(
    bytes: &Arc<[u8]>,
    cell: &Cell<'_>,
    timers: Option<&Arc<Mutex<SessionCounters>>>,
) -> Result<SimResult, SimError> {
    let mut reader = TraceReader::new(Cursor::new(Arc::clone(bytes)))
        .map_err(|e| SimError::Ingest(e.to_string()))?;
    let replay = Replay::stream(&mut reader)
        .granularity(cell.granularity)
        .pressure(cell.pressure);
    let replay = match timers {
        Some(sink) => {
            let config = cell.config();
            replay.session(
                probes::timed_session(cell, &config, sink)?,
                config.granularity.label(),
            )
        }
        None => replay,
    };
    Ok(replay.run()?.into_solo())
}

/// The in-memory oracle for one cell.
fn in_memory(cell: &Cell<'_>) -> Result<SimResult, SimError> {
    Ok(Replay::new(cell.trace)
        .granularity(cell.granularity)
        .pressure(cell.pressure)
        .run()?
        .into_solo())
}

fn cells(logs: &[TraceLog]) -> Vec<(usize, Cell<'_>)> {
    let mut out = Vec::new();
    for (i, trace) in logs.iter().enumerate() {
        for granularity in granularities() {
            out.push((
                i,
                Cell {
                    trace,
                    granularity,
                    pressure: PRESSURE,
                    shards: 1,
                },
            ));
        }
    }
    out
}

struct Measured {
    /// Per cell: every streamed-replay time, seconds.
    times: Vec<Vec<f64>>,
    /// The same times, normalised to the reference host.
    norm: Vec<Vec<f64>>,
    /// Traced runs only: summed time of each cell's timed twin.
    twin_s: f64,
    /// Per cell: the first pass's result.
    results: Vec<SimResult>,
    passes: usize,
}

/// Runs passes over the cells until `seconds` are spent (at least one
/// pass); later passes must reproduce the first. A traced run follows
/// every cell with a twin whose session calls are all timed; the twin
/// must not change the result.
fn measure(
    ctx: &Ctx<'_>,
    setup: &Setup,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Measured, String> {
    let cells = cells(&setup.logs);
    let mut m = Measured {
        times: vec![Vec::new(); cells.len()],
        norm: vec![Vec::new(); cells.len()],
        twin_s: 0.0,
        results: Vec::new(),
        passes: 0,
    };
    let t0 = Instant::now();
    loop {
        for (c, (i, cell)) in cells.iter().enumerate() {
            let (result, secs, norm) =
                ctx.host.timed(|| stream_cell(&setup.encoded[*i], cell, None));
            let result = result.map_err(|e| format!("{}: {e}", cell.label()))?;
            m.times[c].push(secs);
            m.norm[c].push(norm);
            out.ops += 1;
            if ctx.traced() {
                let _span = ctx.tracer.span(format!("replay.cell.{}", cell.label()));
                let sink = Arc::new(Mutex::new(SessionCounters::default()));
                let (twin, secs) = timed(|| stream_cell(&setup.encoded[*i], cell, Some(&sink)));
                m.twin_s += secs;
                let counters = *sink
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                ctx.tracer.counters(
                    format!("replay.session.{}", cell.label()),
                    counters.to_json(),
                );
                if twin.map_err(|e| format!("{}: {e}", cell.label()))? != result {
                    out.fail(
                        1,
                        format!("{}: timing wrapper changed the result", cell.label()),
                    );
                }
            }
            if m.passes == 0 {
                m.results.push(result);
            } else if result != m.results[c] {
                out.fail(1, format!("{}: a later pass differed", cell.label()));
            }
        }
        m.passes += 1;
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(m)
}

/// Streamed results that differ from their in-memory oracle, by cell.
pub fn mismatched(streamed: &[SimResult], oracle: &[SimResult]) -> Vec<usize> {
    (0..streamed.len().max(oracle.len()))
        .filter(|&c| streamed.get(c) != oracle.get(c))
        .collect()
}

pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let models = TRACES
        .iter()
        .map(|n| catalog::by_name(n).ok_or(format!("catalog is missing {n}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut gen_times = Vec::new();
    let (setup, setup_times, setup_norm) = repeat_setup(SETUP_REPS, ctx, || {
        let (logs, secs) = timed(|| {
            models
                .iter()
                .map(|m| m.trace(ctx.scale, ctx.seed))
                .collect::<Vec<_>>()
        });
        gen_times.push(secs);
        let _span = ctx.tracer.span("setup.encode");
        let encoded = logs
            .iter()
            .map(|log| {
                let mut bytes = Vec::new();
                trace_bin::save_binary(log, &mut bytes).map(|()| Arc::from(bytes))
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Setup { logs, encoded })
    })?;

    let m = measure(ctx, &setup, ctx.seconds, &mut out)?;
    let all_cells = cells(&setup.logs);
    {
        let _span = ctx.tracer.span("replay.oracle");
        let oracle = all_cells
            .iter()
            .map(|(_, cell)| in_memory(cell))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        for c in mismatched(&m.results, &oracle) {
            out.fail(
                1,
                format!(
                    "{}: streamed result differs from in-memory",
                    all_cells[c].1.label()
                ),
            );
        }
    }
    for r in &m.results {
        out.digest.add(r);
    }
    let wall_s: f64 = m.times.iter().map(|t| median(t)).sum();
    let norm_wall_s: f64 = m.norm.iter().map(|t| median(t)).sum();
    let events: u64 = all_cells
        .iter()
        .map(|(_, c)| c.trace.events.len() as u64)
        .sum();
    let pass_ms: Vec<f64> = pass_totals(&m.times).iter().map(|s| s * 1e3).collect();
    out.note(
        "replay",
        Json::obj(vec![
            (
                "traces",
                Json::Arr(TRACES.iter().map(|&n| Json::from(n)).collect()),
            ),
            ("pressure", Json::from(u64::from(PRESSURE))),
            ("cells", Json::from(all_cells.len())),
            ("events_per_pass", Json::from(events)),
            ("passes", Json::from(m.passes)),
            (
                "pass_ms",
                Json::Arr(pass_ms.iter().map(|&x| Json::from(x)).collect()),
            ),
        ]),
    );

    if ctx.traced() {
        let plain_s: f64 = m.times.iter().flatten().sum();
        let input = ProbeInput {
            traces: setup.logs.iter().collect(),
            cells: all_cells.iter().map(|(_, c)| *c).collect(),
            tenants_trace: &setup.logs[0],
            serve_trace: &setup.logs[0],
            serve_run: true,
        };
        probes::run_all(ctx, &input, &mut out)?;
        out.metric("workloads.trace_gen_s", median(&gen_times));
        out.metric("trace.overhead_share", (m.twin_s - plain_s) / plain_s);
    } else {
        out.end_to_end(
            [median(&setup_times), median(&setup_norm)],
            [wall_s, norm_wall_s],
            [events as f64 / wall_s, events as f64 / norm_wall_s],
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_flags_a_perturbed_result() {
        let log = catalog::by_name("gzip").unwrap().trace(0.05, 4);
        let mut bytes = Vec::new();
        trace_bin::save_binary(&log, &mut bytes).unwrap();
        let bytes: Arc<[u8]> = Arc::from(bytes);
        let cell = Cell {
            trace: &log,
            granularity: Granularity::units(8),
            pressure: PRESSURE,
            shards: 1,
        };
        let streamed = vec![stream_cell(&bytes, &cell, None).unwrap()];
        let oracle = vec![in_memory(&cell).unwrap()];
        assert!(mismatched(&streamed, &oracle).is_empty());
        let sink = Arc::new(Mutex::new(SessionCounters::default()));
        let wrapped = vec![stream_cell(&bytes, &cell, Some(&sink)).unwrap()];
        assert!(mismatched(&wrapped, &oracle).is_empty());
        assert!(sink.lock().unwrap().access_or_insert.calls > 0);
        let mut perturbed = oracle.clone();
        perturbed[0].census_inter_links += 1;
        assert_eq!(mismatched(&streamed, &perturbed), vec![0]);
    }
}
