//! Multi-tenant concurrent replay over a [`ConcurrentSession`].
//!
//! [`run_tenants`] — reached through [`crate::replay::Replay::tenants`]
//! and [`crate::replay::Replay::concurrent`] — drives N per-tenant
//! traces through one shared concurrent cache on T worker threads:
//! thread `j` owns tenants `j`, `j+T`, … and round-robins bounded event
//! slices across its tenants, so with several tenants per thread their
//! requests interleave the way independent guest programs' would. A
//! tenant lives on one worker, and its lock is the only one its
//! requests take, so without an arbiter no two workers ever wait on
//! each other. Each tenant's replay runs the exact [`SimDriver`] core every
//! solo replay uses, against that tenant's
//! [`cce_core::TenantSession`] handle.
//!
//! **Determinism:** without an arbiter, every tenant's [`SimResult`] is
//! byte-identical to its solo single-threaded run at the same capacity
//! and shard count, for any thread count — per-tenant lanes make tenant
//! state independent of global interleaving (see DESIGN.md §12; enforced
//! by `tests/concurrent_conformance.rs`). With an arbiter, capacity
//! moves depend on the global access interleaving, so runs are
//! reproducible only at `threads = 1`.

use crate::simulator::{SimConfig, SimDriver, SimError, SimResult};
use cce_core::{CacheSession, ConcurrentSession, TenantId, TenantSession};
use cce_dbt::{SharedTrace, TraceEvent};
use std::sync::Arc;

/// Replays trace `t` against tenant `t` of `session` on `threads`
/// workers, `slice` events per round-robin turn, with `config`'s cost
/// models. Returns one [`SimResult`] per tenant, in tenant order.
///
/// # Errors
///
/// [`SimError::EmptyTrace`] when `traces` is empty or its length differs
/// from `session.tenant_count()`, plus the per-tenant replay errors of a
/// solo run.
pub(crate) fn run_tenants(
    session: &ConcurrentSession,
    traces: &[SharedTrace],
    config: &SimConfig,
    threads: usize,
    slice: usize,
) -> Result<Vec<SimResult>, SimError> {
    if traces.is_empty() || session.tenant_count() != traces.len() {
        return Err(SimError::EmptyTrace);
    }
    let mut drivers = Vec::with_capacity(traces.len());
    for (t, trace) in traces.iter().enumerate() {
        let tenant = session.tenant(TenantId(t as u32));
        let label = tenant.granularity().label();
        drivers.push((
            t,
            SimDriver::new(
                &trace.name,
                &trace.superblocks,
                trace.event_count,
                tenant,
                label,
                config,
            )?,
            Cursor::new(&trace.chunks),
        ));
    }
    let threads = threads.max(1).min(drivers.len());
    let slice = slice.max(1);
    let mut groups: Vec<Vec<TenantRun<'_>>> = (0..threads).map(|_| Vec::new()).collect();
    for run in drivers {
        groups[run.0 % threads].push(run);
    }
    let mut results: Vec<Option<Result<SimResult, SimError>>> =
        (0..traces.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|group| scope.spawn(move || run_group(group, slice)))
            .collect();
        for handle in handles {
            // cce-analyze: allow(panic-path): join fails only when the worker panicked; re-raising is the right propagation
            for (t, result) in handle.join().expect("concurrent replay worker panicked") {
                results[t] = Some(result);
            }
        }
    });
    results
        .into_iter()
        // cce-analyze: allow(panic-path): tenant t goes to group t % threads, so every slot is filled by construction
        .map(|r| r.expect("every tenant was assigned to a worker"))
        .collect()
}

type TenantRun<'a> = (usize, SimDriver<TenantSession>, Cursor<'a>);

/// Round-robins bounded slices across one worker's tenants until every
/// stream is drained, then finishes each driver.
fn run_group(group: Vec<TenantRun<'_>>, slice: usize) -> Vec<(usize, Result<SimResult, SimError>)> {
    let mut done = Vec::with_capacity(group.len());
    let mut live = group;
    while !live.is_empty() {
        let mut still = Vec::with_capacity(live.len());
        for (t, mut driver, mut cursor) in live {
            match cursor.next_slice(slice) {
                Some(events) => match driver.feed(events) {
                    Ok(()) => still.push((t, driver, cursor)),
                    Err(e) => done.push((t, Err(e))),
                },
                None => done.push((t, driver.finish())),
            }
        }
        live = still;
    }
    done
}

/// A read cursor over one tenant's chunked event stream.
struct Cursor<'a> {
    chunks: &'a [Arc<[TraceEvent]>],
    chunk: usize,
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn new(chunks: &'a [Arc<[TraceEvent]>]) -> Cursor<'a> {
        Cursor {
            chunks,
            chunk: 0,
            offset: 0,
        }
    }

    /// The next up-to-`max`-event slice, or `None` when drained. Never
    /// crosses a chunk boundary (slices stay borrowed, no copying).
    fn next_slice(&mut self, max: usize) -> Option<&'a [TraceEvent]> {
        while self.chunk < self.chunks.len() {
            let chunk = &self.chunks[self.chunk];
            if self.offset >= chunk.len() {
                self.chunk += 1;
                self.offset = 0;
                continue;
            }
            let end = (self.offset + max).min(chunk.len());
            let slice = &chunk[self.offset..end];
            self.offset = end;
            return Some(slice);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Replay;
    use crate::simulator::EventSource;
    use cce_core::{ArbiterConfig, Granularity, TenantConfig};
    use cce_workloads::catalog;

    fn traces(n: usize) -> Vec<SharedTrace> {
        let names = ["gzip", "crafty", "gcc", "perlbmk"];
        (0..n)
            .map(|i| {
                let log = catalog::by_name(names[i % names.len()])
                    .unwrap()
                    .trace(0.02, 1 + i as u64);
                SharedTrace::from_log(&log)
            })
            .collect()
    }

    /// A session of `tenants` identical tenants at `sim`'s geometry.
    fn session(
        tenants: usize,
        sim: &SimConfig,
        shards: u32,
        arbiter: Option<ArbiterConfig>,
    ) -> ConcurrentSession {
        let configs = (0..tenants)
            .map(|_| TenantConfig::with_granularity(sim.granularity, sim.capacity))
            .collect();
        ConcurrentSession::new(configs, shards, arbiter).unwrap()
    }

    fn concurrent(
        ts: &[SharedTrace],
        sim: &SimConfig,
        shards: u32,
        threads: usize,
        slice: usize,
    ) -> Vec<SimResult> {
        Replay::concurrent(&session(ts.len(), sim, shards, None), ts)
            .config(sim)
            .threads(threads)
            .slice(slice)
            .run()
            .unwrap()
            .into_tenants()
    }

    #[test]
    fn each_tenant_matches_its_solo_run_at_any_thread_count() {
        let ts = traces(3);
        let sim = SimConfig {
            granularity: Granularity::units(4),
            capacity: 16 * 1024,
            ..SimConfig::default()
        };
        for threads in [1usize, 2, 4] {
            let results = concurrent(&ts, &sim, 2, threads, 64);
            assert_eq!(results.len(), 3);
            for (t, trace) in ts.iter().enumerate() {
                let solo = Replay::new(trace)
                    .config(&sim)
                    .shards(2)
                    .run()
                    .unwrap()
                    .into_solo();
                assert_eq!(results[t], solo, "tenant {t} diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn slicing_does_not_change_results() {
        let ts = traces(2);
        let sim = SimConfig {
            capacity: 8 * 1024,
            ..SimConfig::default()
        };
        let fine = concurrent(&ts, &sim, 2, 1, 1);
        let coarse = concurrent(&ts, &sim, 2, 1, 100_000);
        assert_eq!(fine, coarse, "slice size must be invisible");
    }

    #[test]
    fn arbiter_runs_are_reproducible_single_threaded() {
        let ts = traces(2);
        let sim = SimConfig {
            capacity: 4 * 1024,
            ..SimConfig::default()
        };
        let arbiter = ArbiterConfig {
            review_period: 512,
            ..ArbiterConfig::default()
        };
        let run = || {
            Replay::concurrent(&session(2, &sim, 2, Some(arbiter)), &ts)
                .config(&sim)
                .run()
                .unwrap()
        };
        assert_eq!(run(), run(), "single-threaded arbiter replay must be pure");
    }

    #[test]
    fn empty_input_is_an_error() {
        let sim = SimConfig::default();
        assert_eq!(
            Replay::concurrent(&session(1, &sim, 4, None), &[])
                .run()
                .unwrap_err(),
            SimError::EmptyTrace
        );
    }

    #[test]
    fn shared_trace_event_source_agrees_with_cursor() {
        // The cursor must deliver exactly the events the EventSource
        // iterator would, in order.
        let ts = traces(1);
        let trace = &ts[0];
        let mut cursor = Cursor::new(&trace.chunks);
        let mut from_cursor = Vec::new();
        while let Some(s) = cursor.next_slice(97) {
            from_cursor.extend_from_slice(s);
        }
        let from_source: Vec<TraceEvent> = trace
            .event_chunks()
            .flat_map(<[TraceEvent]>::to_vec)
            .collect();
        assert_eq!(from_cursor, from_source);
    }
}
