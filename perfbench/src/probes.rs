//! The layer probes of the traced run.
//!
//! Every traced run prints every per-layer metric, so each workload
//! hands these probes its own inputs (its traces, its cache geometries,
//! its serve registry) and each probe times one layer on them through
//! the public API. Where a workload exercises a layer itself, it
//! overrides the probe's figure with its own measurement.

use crate::serve::{drain_ms, nominal_config};
use crate::stats::{median, timed};
use crate::tenants::tenants_run;
use crate::tracer::{SessionCounters, TimingSession};
use crate::{Ctx, Outcome};
use cce_core::{CacheSession, CacheStats, CodeCache, Granularity, ShardedCache};
use cce_dbt::{trace_bin, FrameStream, StreamFrame, StreamWriter, TraceLog};
use cce_sim::pressure::{cell_config, TraceSizing};
use cce_sim::serve::ServePlan;
use cce_sim::{run_serve, Engine, Replay, SimConfig, SimDriver, SimError, SimResult};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Repetitions of the encode/decode probes; the median is reported.
const CODEC_REPS: usize = 3;

/// Events per `SimDriver::feed` call in the feed probe — the chunk size
/// a streamed replay feeds it.
const FEED_CHUNK: usize = 4096;

/// One cache geometry over one trace.
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    pub trace: &'a TraceLog,
    pub granularity: Granularity,
    pub pressure: u32,
    pub shards: u32,
}

impl Cell<'_> {
    pub fn label(&self) -> String {
        format!(
            "{}/{}/p{}/s{}",
            self.trace.name,
            self.granularity.label(),
            self.pressure,
            self.shards
        )
    }

    pub fn config(&self) -> SimConfig {
        cell_config(
            TraceSizing::of(self.trace),
            self.granularity,
            self.pressure,
            self.shards,
            &SimConfig::default(),
        )
    }
}

/// A workload's inputs, as the probes see them.
pub struct ProbeInput<'a> {
    /// Traces for the `trace_bin` encode/decode probe.
    pub traces: Vec<&'a TraceLog>,
    /// Geometries for the feed/session probe and the ladder probe.
    pub cells: Vec<Cell<'a>>,
    /// Trace the 4-tenant scaling probe replays.
    pub tenants_trace: &'a TraceLog,
    /// Trace whose registry feeds the serve-plan, stream and serve probes.
    pub serve_trace: &'a TraceLog,
    /// Whether to run the nominal serve probe (the `serve` workload
    /// measures its own serve layer instead).
    pub serve_run: bool,
}

/// Runs every probe and stores its metrics into `out`.
pub fn run_all(ctx: &Ctx<'_>, input: &ProbeInput<'_>, out: &mut Outcome) -> Result<(), String> {
    trace_bin_probe(ctx, &input.traces, out)?;
    feed_probe(ctx, &input.cells, out).map_err(|e| e.to_string())?;
    ladder_probe(ctx, &input.cells, out).map_err(|e| e.to_string())?;
    scaling_probe(ctx, input.tenants_trace, out).map_err(|e| e.to_string())?;
    serve_probe(ctx, input.serve_trace, input.serve_run, out)?;
    Ok(())
}

fn ns_per(secs: f64, events: u64) -> f64 {
    secs * 1e9 / events.max(1) as f64
}

/// `save_binary` and standalone `load_binary` over the traces.
fn trace_bin_probe(ctx: &Ctx<'_>, traces: &[&TraceLog], out: &mut Outcome) -> Result<(), String> {
    let _span = ctx.tracer.span("probe.trace_bin");
    let events: u64 = traces.iter().map(|t| t.events.len() as u64).sum();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..CODEC_REPS {
        let mut encoded = Vec::new();
        let t0 = Instant::now();
        for t in traces {
            let mut bytes = Vec::new();
            trace_bin::save_binary(t, &mut bytes).map_err(|e| e.to_string())?;
            encoded.push(bytes);
        }
        enc.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let decoded: Result<Vec<TraceLog>, _> = encoded
            .iter()
            .map(|b| trace_bin::load_binary(b.as_slice()))
            .collect();
        dec.push(t0.elapsed().as_secs_f64());
        let decoded = decoded.map_err(|e| e.to_string())?;
        if decoded.iter().zip(traces).any(|(d, t)| d != *t) {
            out.fail(1, "trace_bin round trip changed a trace");
        }
    }
    out.metric(
        "dbt.trace_bin.encode_ns_per_event",
        ns_per(median(&enc), events),
    );
    out.metric(
        "dbt.trace_bin.decode_ns_per_event",
        ns_per(median(&dec), events),
    );
    Ok(())
}

/// Replays one trace through `SimDriver::feed` over a timed session.
/// Returns the result with the summed feed time in ns.
fn drive<S: CacheSession>(
    trace: &TraceLog,
    session: S,
    config: &SimConfig,
) -> Result<(SimResult, u64), SimError> {
    let mut sim = SimDriver::new(
        &trace.name,
        &trace.superblocks,
        trace.events.len() as u64,
        session,
        config.granularity.label(),
        config,
    )?;
    let mut feed_ns = 0u64;
    for chunk in trace.events.chunks(FEED_CHUNK) {
        let t0 = Instant::now();
        sim.feed(chunk)?;
        feed_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    Ok((sim.finish()?, feed_ns))
}

/// A bare or sharded cache for `cell`, behind the timing wrapper.
pub fn timed_session(
    cell: &Cell<'_>,
    config: &SimConfig,
    sink: &Arc<Mutex<SessionCounters>>,
) -> Result<Box<dyn CacheSession>, SimError> {
    Ok(if cell.shards <= 1 {
        let cache = CodeCache::with_granularity(config.granularity, config.capacity)?;
        Box::new(TimingSession::new(cache, Arc::clone(sink)))
    } else {
        let cache =
            ShardedCache::with_granularity(config.granularity, config.capacity, cell.shards)?;
        Box::new(TimingSession::new(cache, Arc::clone(sink)))
    })
}

/// `SimDriver::feed` time, its self time (minus the session calls it
/// makes), the per-verb session timers and the `CacheStats` ratios.
fn feed_probe(ctx: &Ctx<'_>, cells: &[Cell<'_>], out: &mut Outcome) -> Result<(), SimError> {
    let _span = ctx.tracer.span("probe.feed");
    let mut total = SessionCounters::default();
    let mut stats = CacheStats::default();
    let mut feed_ns = 0u64;
    let mut events = 0u64;
    for cell in cells {
        let _cell_span = ctx.tracer.span(format!("probe.feed.{}", cell.label()));
        let config = cell.config();
        let sink = Arc::new(Mutex::new(SessionCounters::default()));
        let session = timed_session(cell, &config, &sink)?;
        let (result, ns) = drive(cell.trace, session, &config)?;
        let counters = *sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ctx.tracer
            .counters(format!("session.{}", cell.label()), counters.to_json());
        total.merge(&counters);
        stats.merge(&result.stats);
        feed_ns += ns;
        events += cell.trace.events.len() as u64;
    }
    let per_event = |ns: u64| ns as f64 / events.max(1) as f64;
    out.metric("sim.simulator.feed_ns_per_event", per_event(feed_ns));
    out.metric(
        "sim.simulator.feed_self_ns_per_event",
        per_event(feed_ns.saturating_sub(total.total_nanos())),
    );
    out.metric(
        "core.session.access_or_insert_calls",
        total.access_or_insert.calls as f64,
    );
    out.metric(
        "core.session.access_or_insert_ns",
        total.access_or_insert.mean_ns(),
    );
    out.metric("core.session.link_calls", total.link.calls as f64);
    out.metric("core.session.link_ns", total.link.mean_ns());
    out.metric("core.session.probe_calls", total.probe.calls as f64);
    out.metric("core.session.probe_ns", total.probe.mean_ns());
    out.metric("core.session.census_calls", total.census.calls as f64);
    out.metric("core.session.census_ns", total.census.mean_ns());
    store_cache_ratios(&stats, out);
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The exact `CacheStats`-derived ratios of the `core` layer.
fn store_cache_ratios(stats: &CacheStats, out: &mut Outcome) {
    out.metric("core.cache.hit_ratio", ratio(stats.hits, stats.accesses));
    out.metric(
        "core.org.evictions_per_kevent",
        ratio(stats.eviction_invocations * 1000, stats.accesses),
    );
    out.metric(
        "core.org.blocks_per_eviction",
        ratio(stats.blocks_evicted, stats.eviction_invocations),
    );
    out.metric(
        "core.links.unlinks_per_eviction",
        ratio(stats.unlink_operations, stats.eviction_invocations),
    );
}

/// The single-pass ladder against the naive per-cell engine over the
/// unsharded cross product of the cells' granularities and pressures,
/// per trace. The two grids must agree.
fn ladder_probe(ctx: &Ctx<'_>, cells: &[Cell<'_>], out: &mut Outcome) -> Result<(), SimError> {
    let _span = ctx.tracer.span("probe.ladder");
    let mut ladder_s = 0.0;
    let mut naive_s = 0.0;
    let mut cell_events = 0u64;
    let mut done: Vec<&str> = Vec::new();
    for cell in cells {
        if done.contains(&cell.trace.name.as_str()) {
            continue;
        }
        done.push(&cell.trace.name);
        let mut gs: Vec<Granularity> = Vec::new();
        let mut ps: Vec<u32> = Vec::new();
        for c in cells.iter().filter(|c| c.trace.name == cell.trace.name) {
            if !gs.contains(&c.granularity) {
                gs.push(c.granularity);
            }
            if !ps.contains(&c.pressure) {
                ps.push(c.pressure);
            }
        }
        let traces = std::slice::from_ref(cell.trace);
        let grid = |engine: Engine| {
            Replay::matrix(traces)
                .granularities(&gs)
                .pressures(&ps)
                .engine(engine)
                .run()
        };
        let (ladder, ls) = {
            let _s = ctx.tracer.span(format!("probe.ladder.{}", cell.trace.name));
            timed(|| grid(Engine::Ladder))
        };
        let (naive, ns) = {
            let _s = ctx.tracer.span(format!("probe.naive.{}", cell.trace.name));
            timed(|| grid(Engine::Naive))
        };
        if ladder? != naive? {
            out.fail(
                1,
                format!("ladder probe diverged from naive on {}", cell.trace.name),
            );
        }
        ladder_s += ls;
        naive_s += ns;
        cell_events += (gs.len() * ps.len()) as u64 * cell.trace.events.len() as u64;
    }
    let ladder_ns = ns_per(ladder_s, cell_events);
    let naive_ns = ns_per(naive_s, cell_events);
    out.metric("sim.ladder.ns_per_cell_event", ladder_ns);
    out.metric("sim.sweep.naive_ns_per_cell_event", naive_ns);
    out.metric(
        "sim.ladder.speedup_vs_naive",
        naive_ns / ladder_ns.max(1e-9),
    );
    Ok(())
}

/// `tenants` events/s at 2 threads over 1 thread.
fn scaling_probe(ctx: &Ctx<'_>, trace: &TraceLog, out: &mut Outcome) -> Result<(), SimError> {
    let _span = ctx.tracer.span("probe.scaling");
    let (one, a) = tenants_run(trace, 1)?;
    let (two, b) = tenants_run(trace, 2)?;
    if a != b {
        out.fail(1, "tenant results changed with the thread count");
    }
    out.metric("core.concurrent.scaling_2v1", two / one);
    Ok(())
}

/// `StreamWriter` encode and `FrameStream` decode of a plan's requests,
/// in memory, one frame per request.
fn stream_probe(plan: &ServePlan, out: &mut Outcome) -> Result<(), String> {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..CODEC_REPS {
        let t0 = Instant::now();
        let mut writer =
            StreamWriter::new(Vec::new(), &plan.name, plan.event_count, &plan.registry)
                .map_err(|e| e.to_string())?;
        for req in &plan.requests {
            writer.write_chunk(&req.events).map_err(|e| e.to_string())?;
        }
        let bytes = writer.finish().map_err(|e| e.to_string())?;
        enc.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut stream = FrameStream::new(bytes.as_slice()).map_err(|e| e.to_string())?;
        let mut frames = Vec::with_capacity(plan.requests.len());
        loop {
            match stream.next_frame().map_err(|e| e.to_string())? {
                StreamFrame::Events(events) => frames.push(events),
                StreamFrame::Rejected(why) => return Err(format!("stream probe: {why}")),
                StreamFrame::End => break,
            }
        }
        dec.push(t0.elapsed().as_secs_f64());
        if frames.len() != plan.requests.len()
            || frames
                .iter()
                .zip(&plan.requests)
                .any(|(f, r)| *f != r.events)
        {
            out.fail(1, "stream round trip changed a request");
        }
    }
    out.metric(
        "dbt.stream.encode_ns_per_event",
        ns_per(median(&enc), plan.event_count),
    );
    out.metric(
        "dbt.stream.decode_ns_per_event",
        ns_per(median(&dec), plan.event_count),
    );
    Ok(())
}

/// Serve-plan build time, the stream codec over that plan, and (unless
/// the workload serves for itself) one nominal-rate serve run.
fn serve_probe(
    ctx: &Ctx<'_>,
    trace: &TraceLog,
    serve_run: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let _span = ctx.tracer.span("probe.serve");
    let cfg = nominal_config(ctx.seed, 1.0);
    let (plan, plan_s) = timed(|| ServePlan::build(&trace.superblocks, &trace.name, &cfg));
    let plan = plan.map_err(|e| e.to_string())?;
    out.metric("sim.serve.plan_s", plan_s);
    stream_probe(&plan, out)?;
    if serve_run {
        let report = run_serve(&plan, &cfg).map_err(|e| e.to_string())?;
        out.metric(
            "sim.serve.queue_high_water_events",
            report.queue_high_water as f64,
        );
        out.metric(
            "sim.serve.applied_share",
            ratio(report.applied_events, report.offered_events),
        );
        out.metric(
            "sim.serve.service_p50_ms",
            report.latency.p50_nanos as f64 / 1e6,
        );
        out.metric(
            "sim.serve.service_p99_ms",
            report.latency.p99_nanos as f64 / 1e6,
        );
        out.metric("sim.serve.drain_ms", drain_ms(&plan, &report));
    }
    Ok(())
}
