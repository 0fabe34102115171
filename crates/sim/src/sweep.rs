//! Deterministic threaded sweep runner.
//!
//! A full study is a `(benchmark × shard-count × granularity ×
//! pressure)` grid of independent simulator cells — embarrassingly
//! parallel, but figure regeneration demands *byte-identical* output run
//! to run. The runner therefore separates planning from execution:
//! [`plan`] enumerates the cells in a fixed canonical order (trace-major,
//! then shard count, then pressure, then granularity — with a single
//! shard count this is exactly the order the sequential grid loop has
//! always used), and `run_matrix` lets a scoped thread pool claim
//! cells from an atomic cursor while every worker writes its result into
//! the cell's *pre-indexed slot*. Scheduling nondeterminism affects only
//! which thread computes a cell, never where the result lands, so
//! `--jobs N` output is byte-identical to `--jobs 1`. Whole-trace sizing
//! scans ([`TraceSizing`]) are hoisted out and computed once per trace
//! per plan, not once per cell.
//!
//! Callers configure sweeps through [`crate::replay::ReplayMatrix`]
//! (built by [`crate::replay::Replay::matrix`]); this module holds the
//! planner and the worker pool it runs on.

use crate::ladder::{simulate_ladder_source, Engine, LadderCell};
use crate::pressure::{cell_config, TraceSizing};
use crate::replay::Replay;
use crate::simulator::{EventSource, SimConfig, SimError, SimResult};
use cce_core::Granularity;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One planned cell of a sweep, identified by axis indices so the cell
/// list itself stays small and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Index into the caller's trace slice.
    pub trace: usize,
    /// Granularity to simulate.
    pub granularity: Granularity,
    /// Cache-pressure factor `n` (capacity = `maxCache / n`).
    pub pressure: u32,
    /// Shard count (1 = a bare cache; >1 = a `ShardedCache` splitting
    /// the same total capacity).
    pub shards: u32,
}

/// One finished cell: the plan entry plus its simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The cell that was simulated.
    pub cell: SweepCell,
    /// The simulation outcome.
    pub result: SimResult,
}

/// Enumerates every `(trace, shards, pressure, granularity)` cell in
/// canonical order. This order is the contract: [`run_matrix`] returns
/// results in exactly this sequence regardless of worker count. With
/// `shard_counts == [1]` the sequence is identical to the historical
/// `(trace, pressure, granularity)` order.
#[must_use]
pub fn plan(
    trace_count: usize,
    granularities: &[Granularity],
    pressures: &[u32],
    shard_counts: &[u32],
) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(
        trace_count * granularities.len() * pressures.len() * shard_counts.len(),
    );
    for trace in 0..trace_count {
        for &shards in shard_counts {
            for &pressure in pressures {
                for &granularity in granularities {
                    cells.push(SweepCell {
                        trace,
                        granularity,
                        pressure,
                        shards,
                    });
                }
            }
        }
    }
    cells
}

/// Resolves the worker count: an explicit `--jobs` flag wins, then the
/// `CCE_JOBS` environment variable, then the machine's available
/// parallelism. Zero or unparsable values are treated as unset.
#[must_use]
pub fn resolve_jobs(flag: Option<usize>) -> usize {
    jobs_from(flag, std::env::var("CCE_JOBS").ok().as_deref())
}

/// The pure core of [`resolve_jobs`], separated so the precedence chain
/// is testable without mutating process environment.
#[must_use]
pub fn jobs_from(flag: Option<usize>, env: Option<&str>) -> usize {
    flag.filter(|&n| n > 0)
        .or_else(|| env.and_then(|s| s.trim().parse().ok()).filter(|&n| n > 0))
        .unwrap_or_else(|| {
            // cce-analyze: allow(nondet-taint): job-count fallback only; per-job results are merged in config order
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs every cell of the `(traces × shard-counts × granularities ×
/// pressures)` grid across `jobs` scoped worker threads and returns the
/// results in [`plan`] order. Any `Sync` [`EventSource`] works — an
/// in-memory [`cce_dbt::TraceLog`] or a decode-once
/// [`cce_dbt::SharedTrace`] whose `Arc`'d chunks every cell replays
/// without copying.
///
/// Workers claim cells from a shared atomic cursor (dynamic load
/// balancing — big benchmarks don't serialize behind small ones) and
/// each returns `(slot index, result)` pairs that are written back into
/// a pre-indexed result vector after the scope joins. The output is
/// therefore a pure function of the inputs, independent of `jobs`.
/// Per-trace [`TraceSizing`] summaries are computed once up front, so
/// adding shard counts never multiplies whole-trace scans.
///
/// When `engine` is [`Engine::Ladder`], all unsharded cells of one
/// trace become a single work item simulated in one pass by
/// [`simulate_ladder_source`]; sharded cells (each shard is its own
/// eviction domain) stay on the per-cell oracle. Either way every
/// result lands in its plan slot, so the output — including its byte
/// identity across `jobs` counts — is unchanged.
///
/// # Errors
///
/// If any cell fails, returns the error of the *lowest-indexed* failing
/// cell — again independent of scheduling. A worker thread that dies
/// without reporting (a simulator bug surfacing as a panic) becomes
/// [`SimError::Worker`] rather than tearing down the caller.
pub(crate) fn run_matrix<T: EventSource + Sync>(
    traces: &[T],
    granularities: &[Granularity],
    pressures: &[u32],
    shard_counts: &[u32],
    base: &SimConfig,
    jobs: usize,
    engine: Engine,
) -> Result<Vec<SweepPoint>, SimError> {
    let cells = plan(traces.len(), granularities, pressures, shard_counts);
    let sizings: Vec<TraceSizing> = traces.iter().map(TraceSizing::of_source).collect();
    let items = build_items(&cells, traces.len(), engine);
    let jobs = jobs.max(1).min(items.len().max(1));
    let cursor = AtomicUsize::new(0);

    let mut slots: Vec<Option<Result<SimResult, SimError>>> = Vec::new();
    slots.resize_with(cells.len(), || None);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        match items.get(i) {
                            None => break,
                            Some(WorkItem::Cell(idx)) => {
                                let cell = cells[*idx];
                                let r =
                                    run_cell(&traces[cell.trace], sizings[cell.trace], cell, base);
                                local.push((*idx, r));
                            }
                            Some(WorkItem::Group { trace, members }) => {
                                local.extend(run_ladder_group(
                                    &traces[*trace],
                                    sizings[*trace],
                                    &cells,
                                    members,
                                    base,
                                ));
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        let mut failure: Option<String> = None;
        for h in handles {
            match h.join() {
                Ok(rows) => {
                    for (i, r) in rows {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked with an opaque payload".to_owned());
                    failure.get_or_insert(msg);
                }
            }
        }
        failure
    })
    .map_or(Ok(()), |msg| Err(SimError::Worker(msg)))?;

    let mut out = Vec::with_capacity(cells.len());
    for (idx, (cell, slot)) in cells.into_iter().zip(slots).enumerate() {
        // Unreachable once no worker failed, but a lost slot must not
        // become a panic either: surface it as the same error class.
        let result = slot.ok_or_else(|| {
            SimError::Worker(format!("cell {idx} was claimed but never reported"))
        })??;
        out.push(SweepPoint { cell, result });
    }
    Ok(out)
}

/// A unit of work a sweep worker claims from the cursor.
enum WorkItem {
    /// One grid cell on the per-cell oracle engine.
    Cell(usize),
    /// Every unsharded cell of one trace, fused into a single ladder
    /// pass. `members` are plan indices (the result slots).
    Group { trace: usize, members: Vec<usize> },
}

/// Maps the planned cells onto work items for the chosen engine. Item
/// order only affects scheduling — results are slot-addressed — so
/// grouping keeps the naive path's byte-for-byte output guarantee.
fn build_items(cells: &[SweepCell], trace_count: usize, engine: Engine) -> Vec<WorkItem> {
    match engine {
        Engine::Naive => (0..cells.len()).map(WorkItem::Cell).collect(),
        Engine::Ladder => {
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); trace_count];
            let mut items = Vec::new();
            for (i, cell) in cells.iter().enumerate() {
                if cell.shards == 1 {
                    groups[cell.trace].push(i);
                } else {
                    items.push(WorkItem::Cell(i));
                }
            }
            for (trace, members) in groups.into_iter().enumerate() {
                if !members.is_empty() {
                    items.push(WorkItem::Group { trace, members });
                }
            }
            items
        }
    }
}

/// Runs one cell on the per-cell oracle: the cell's geometry from the
/// trace's cached [`TraceSizing`] (so no cell rescans the trace), one
/// solo [`Replay`], and the *requested* granularity's label so sweep
/// tables stay aligned.
fn run_cell<T: EventSource>(
    source: &T,
    sizing: TraceSizing,
    cell: SweepCell,
    base: &SimConfig,
) -> Result<SimResult, SimError> {
    let config = cell_config(sizing, cell.granularity, cell.pressure, cell.shards, base);
    let mut result = Replay::new(source)
        .config(&config)
        .shards(cell.shards)
        .run()?
        .into_solo();
    result.granularity_label = cell.granularity.label();
    Ok(result)
}

/// Runs one trace's fused cells through the ladder engine and labels
/// each result exactly as the oracle's cell runner would: the
/// *requested* granularity's label, the *effective* geometry.
///
/// Granularity clamping and the pressure ladder's capacity floor
/// collapse many requested cells onto the same effective `(granularity,
/// capacity)` pair — on the paper grid well over half of them. The
/// simulator is deterministic, so duplicates are simulated once and the
/// result is cloned into every requesting slot; only the per-cell label
/// differs. The oracle engine deliberately keeps paying per cell — it
/// is the baseline this shortcut is measured against.
fn run_ladder_group<T: EventSource + ?Sized>(
    source: &T,
    sizing: TraceSizing,
    cells: &[SweepCell],
    members: &[usize],
    base: &SimConfig,
) -> Vec<(usize, Result<SimResult, SimError>)> {
    let mut distinct: Vec<LadderCell> = Vec::new();
    let mut rung_of: Vec<usize> = Vec::with_capacity(members.len());
    for &i in members {
        let config = cell_config(sizing, cells[i].granularity, cells[i].pressure, 1, base);
        // The ladder takes exact capacities; apply the same truncation
        // the UnitFifo constructor applies silently.
        let capacity = match config.granularity.unit_count() {
            Some(n) => (config.capacity / u64::from(n)) * u64::from(n),
            None => config.capacity,
        };
        let rung = LadderCell {
            granularity: config.granularity,
            capacity,
        };
        match distinct.iter().position(|d| *d == rung) {
            Some(p) => rung_of.push(p),
            None => {
                rung_of.push(distinct.len());
                distinct.push(rung);
            }
        }
    }
    match simulate_ladder_source(source, &distinct, base) {
        Ok(results) => members
            .iter()
            .zip(rung_of)
            .map(|(&i, rung)| {
                let mut result = results[rung].clone();
                result.granularity_label = cells[i].granularity.label();
                (i, Ok(result))
            })
            .collect(),
        Err(err) => members.iter().map(|&i| (i, Err(err.clone()))).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_dbt::TraceLog;
    use cce_workloads::catalog;

    fn small_traces() -> Vec<TraceLog> {
        ["gzip", "mcf"]
            .iter()
            .map(|n| catalog::by_name(n).unwrap().trace(0.1, 7))
            .collect()
    }

    fn axes() -> (Vec<Granularity>, Vec<u32>) {
        (
            vec![
                Granularity::Flush,
                Granularity::units(8),
                Granularity::Superblock,
            ],
            vec![2, 6],
        )
    }

    #[test]
    fn plan_order_is_trace_major() {
        let (gs, ps) = axes();
        let cells = plan(2, &gs, &ps, &[1]);
        assert_eq!(cells.len(), 2 * 3 * 2);
        assert_eq!(
            cells[0],
            SweepCell {
                trace: 0,
                granularity: Granularity::Flush,
                pressure: 2,
                shards: 1
            }
        );
        // Granularity varies fastest, then pressure, then trace.
        assert_eq!(cells[1].granularity, Granularity::units(8));
        assert_eq!(cells[3].pressure, 6);
        assert_eq!(cells[6].trace, 1);
    }

    #[test]
    fn plan_nests_shard_counts_between_trace_and_pressure() {
        let (gs, ps) = axes();
        let cells = plan(2, &gs, &ps, &[1, 4]);
        assert_eq!(cells.len(), 2 * 2 * 3 * 2);
        // All shards=1 cells of trace 0 precede its shards=4 cells.
        assert!(cells[..6].iter().all(|c| c.trace == 0 && c.shards == 1));
        assert!(cells[6..12].iter().all(|c| c.trace == 0 && c.shards == 4));
        assert!(cells[12..18].iter().all(|c| c.trace == 1 && c.shards == 1));
    }

    #[test]
    fn jobs_precedence_flag_env_fallback() {
        assert_eq!(jobs_from(Some(3), Some("8")), 3);
        assert_eq!(jobs_from(None, Some("8")), 8);
        assert_eq!(jobs_from(None, Some(" 2 ")), 2);
        // Zero and garbage fall through to auto-detection.
        assert!(jobs_from(Some(0), None) >= 1);
        assert!(jobs_from(None, Some("0")) >= 1);
        assert!(jobs_from(None, Some("lots")) >= 1);
        assert!(jobs_from(None, None) >= 1);
    }

    #[test]
    fn sharded_matches_sequential_sweep() {
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let points = run_matrix(&traces, &gs, &ps, &[1], &base, 3, Engine::Naive).unwrap();

        // The serial reference: one `Replay` per cell, in plan order.
        let mut reference = Vec::new();
        for trace in &traces {
            for &pressure in &ps {
                for &granularity in &gs {
                    let mut r = Replay::new(trace)
                        .config(&base)
                        .granularity(granularity)
                        .pressure(pressure)
                        .run()
                        .unwrap()
                        .into_solo();
                    // A sweep labels cells with the *requested* granularity.
                    r.granularity_label = granularity.label();
                    reference.push((granularity, pressure, r));
                }
            }
        }
        assert_eq!(points.len(), reference.len());
        for (p, (granularity, pressure, r)) in points.iter().zip(&reference) {
            assert_eq!(p.cell.granularity, *granularity);
            assert_eq!(p.cell.pressure, *pressure);
            assert_eq!(p.result, *r);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let one = run_matrix(&traces, &gs, &ps, &[1], &base, 1, Engine::Naive).unwrap();
        for jobs in [2, 4, 16] {
            assert_eq!(
                one,
                run_matrix(&traces, &gs, &ps, &[1], &base, jobs, Engine::Naive).unwrap()
            );
        }
    }

    #[test]
    fn shard_axis_is_deterministic_across_worker_counts() {
        // ISSUE 4 acceptance: `--shards 4 --jobs k` byte-identical for
        // every k, preserving PR 1's determinism guarantee.
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let one = run_matrix(&traces, &gs, &ps, &[1, 4], &base, 1, Engine::Naive).unwrap();
        assert_eq!(one.len(), 2 * 2 * 3 * 2);
        for jobs in [2, 5, 16] {
            assert_eq!(
                one,
                run_matrix(&traces, &gs, &ps, &[1, 4], &base, jobs, Engine::Naive).unwrap()
            );
        }
        // And the shards=1 slice equals a shard-free sweep.
        let bare = run_matrix(&traces, &gs, &ps, &[1], &base, 2, Engine::Naive).unwrap();
        let n1: Vec<_> = one.iter().filter(|p| p.cell.shards == 1).cloned().collect();
        assert_eq!(n1, bare);
    }

    #[test]
    fn empty_grid_is_fine() {
        let base = SimConfig::default();
        let no_traces: &[TraceLog] = &[];
        assert_eq!(
            run_matrix(no_traces, &[], &[], &[1], &base, 4, Engine::Naive).unwrap(),
            vec![]
        );
    }

    #[test]
    fn ladder_engine_matches_the_naive_matrix() {
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let naive = run_matrix(&traces, &gs, &ps, &[1], &base, 2, Engine::Naive).unwrap();
        for jobs in [1, 2, 8] {
            let ladder = run_matrix(&traces, &gs, &ps, &[1], &base, jobs, Engine::Ladder).unwrap();
            assert_eq!(ladder, naive, "jobs={jobs}");
        }
    }

    #[test]
    fn ladder_engine_leaves_sharded_cells_on_the_oracle() {
        let traces = small_traces();
        let (gs, ps) = axes();
        let base = SimConfig::default();
        let naive = run_matrix(&traces, &gs, &ps, &[1, 4], &base, 2, Engine::Naive).unwrap();
        let ladder = run_matrix(&traces, &gs, &ps, &[1, 4], &base, 2, Engine::Ladder).unwrap();
        assert_eq!(ladder, naive);
    }

    /// An [`EventSource`] whose stream blows up mid-replay, standing in
    /// for a simulator bug inside a worker thread.
    struct ExplodingSource {
        registry: Vec<cce_dbt::SuperblockInfo>,
    }

    impl EventSource for ExplodingSource {
        fn source_name(&self) -> &str {
            "exploding"
        }
        fn registry(&self) -> &[cce_dbt::SuperblockInfo] {
            &self.registry
        }
        fn event_count(&self) -> u64 {
            1
        }
        fn event_chunks(&self) -> Box<dyn Iterator<Item = &[cce_dbt::TraceEvent]> + '_> {
            panic!("injected worker fault");
        }
    }

    #[test]
    fn worker_panic_surfaces_as_an_error_not_a_crash() {
        let trace = catalog::by_name("gzip").unwrap().trace(0.1, 7);
        let sources = vec![ExplodingSource {
            registry: trace.registry().to_vec(),
        }];
        let base = SimConfig::default();
        let err = run_matrix(
            &sources,
            &[Granularity::Flush],
            &[2],
            &[1],
            &base,
            2,
            Engine::Naive,
        )
        .expect_err("the injected fault must be reported");
        match err {
            SimError::Worker(msg) => assert!(msg.contains("injected worker fault"), "{msg}"),
            other => panic!("wrong error class: {other:?}"),
        }
    }
}
