//! `tenants`: one trace replayed as 4 tenants over one shared
//! `ConcurrentSession` (4 shards per tenant, 8-unit FIFO, pressure 2)
//! on 2 worker threads — `Replay::new(..).tenants(4).threads(2)`. The
//! only workload that contends on the concurrent cache's locks. Runs
//! repeat until the budget is spent.

use crate::probes::{self, Cell, ProbeInput};
use crate::stats::{median, timed};
use crate::{repeat_setup, Ctx, Outcome};
use cce_core::Granularity;
use cce_dbt::TraceLog;
use cce_sim::{Replay, SimError, SimResult};
use cce_util::Json;
use cce_workloads::catalog;
use std::time::Instant;

pub const TRACE: &str = "gcc";
pub const THREADS: usize = 2;
/// Tenant geometry, shared with the scaling probe.
pub const TENANTS: usize = 4;
pub const TENANT_SHARDS: u32 = 4;
pub const TENANT_PRESSURE: u32 = 2;
pub fn tenant_granularity() -> Granularity {
    Granularity::units(8)
}
const SETUP_REPS: usize = 5;

/// Events per second of one `tenants` replay of `trace` at `threads`
/// workers, with its per-tenant results.
pub fn tenants_run(trace: &TraceLog, threads: usize) -> Result<(f64, Vec<SimResult>), SimError> {
    let (report, secs) = timed(|| {
        Replay::new(trace)
            .granularity(tenant_granularity())
            .pressure(TENANT_PRESSURE)
            .shards(TENANT_SHARDS)
            .tenants(TENANTS)
            .threads(threads)
            .run()
    });
    let events = (TENANTS * trace.events.len()) as f64;
    Ok((events / secs, report?.into_tenants()))
}

/// Tenants whose result differs from the solo replay.
pub fn mismatched(tenants: &[SimResult], solo: &SimResult) -> Vec<usize> {
    (0..tenants.len())
        .filter(|&t| tenants[t] != *solo)
        .collect()
}

pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let model = catalog::by_name(TRACE).ok_or("catalog is missing gcc")?;
    let (trace, setup_times, setup_norm) = repeat_setup(SETUP_REPS, ctx, || {
        Ok(model.trace(ctx.scale, ctx.seed))
    })?;

    let solo = {
        let _span = ctx.tracer.span("tenants.oracle");
        Replay::new(&trace)
            .granularity(tenant_granularity())
            .pressure(TENANT_PRESSURE)
            .shards(TENANT_SHARDS)
            .run()
            .map_err(|e| e.to_string())?
            .into_solo()
    };

    let mut times = Vec::new();
    let mut norm = Vec::new();
    let t0 = Instant::now();
    let mut twin_s = 0.0;
    loop {
        let (run, secs, norm_secs) = ctx.host.timed(|| tenants_run(&trace, THREADS));
        let (_, results) = run.map_err(|e| e.to_string())?;
        times.push(secs);
        norm.push(norm_secs);
        out.ops += results.len() as u64;
        if times.len() == 1 {
            results.iter().for_each(|r| out.digest.add(r));
        }
        let bad = mismatched(&results, &solo);
        if !bad.is_empty() {
            out.fail(
                bad.len() as u64,
                format!("tenants {bad:?} differ from the solo replay"),
            );
        }
        if ctx.traced() {
            // The tenants replay has no per-call hook: its traced twin
            // adds a span alone.
            let _span = ctx.tracer.span(format!("tenants.run{}", times.len()));
            let (twin, secs) = timed(|| tenants_run(&trace, THREADS));
            twin_s += secs;
            if twin.map_err(|e| e.to_string())?.1 != results {
                out.fail(1, "traced twin differed");
            }
        }
        if t0.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let events = (TENANTS * trace.events.len()) as f64;
    let wall_s = median(&times);
    let norm_wall_s = median(&norm);
    let ms: Vec<f64> = times.iter().map(|s| s * 1e3).collect();
    out.note(
        "tenants",
        Json::obj(vec![
            ("trace", Json::from(TRACE)),
            ("tenants", Json::from(TENANTS)),
            ("threads", Json::from(THREADS)),
            ("shards", Json::from(u64::from(TENANT_SHARDS))),
            ("pressure", Json::from(u64::from(TENANT_PRESSURE))),
            ("granularity", Json::from(tenant_granularity().label())),
            ("events_per_run", Json::from(events)),
            (
                "run_ms",
                Json::Arr(ms.iter().map(|&x| Json::from(x)).collect()),
            ),
        ]),
    );

    if ctx.traced() {
        let input = ProbeInput {
            traces: vec![&trace],
            cells: vec![Cell {
                trace: &trace,
                granularity: tenant_granularity(),
                pressure: TENANT_PRESSURE,
                shards: TENANT_SHARDS,
            }],
            tenants_trace: &trace,
            serve_trace: &trace,
            serve_run: true,
        };
        probes::run_all(ctx, &input, &mut out)?;
        out.metric("workloads.trace_gen_s", median(&setup_times));
        let plain_s: f64 = times.iter().sum();
        out.metric("trace.overhead_share", (twin_s - plain_s) / plain_s);
    } else {
        out.end_to_end(
            [median(&setup_times), median(&setup_norm)],
            [wall_s, norm_wall_s],
            [events / wall_s, events / norm_wall_s],
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_flags_a_perturbed_tenant() {
        let trace = catalog::by_name("gzip").unwrap().trace(0.05, 5);
        let (_, results) = tenants_run(&trace, THREADS).unwrap();
        let solo = Replay::new(&trace)
            .granularity(tenant_granularity())
            .pressure(TENANT_PRESSURE)
            .shards(TENANT_SHARDS)
            .run()
            .unwrap()
            .into_solo();
        assert!(mismatched(&results, &solo).is_empty());
        let mut perturbed = results.clone();
        perturbed[2].stats.capacity_misses += 1;
        assert_eq!(mismatched(&perturbed, &solo), vec![2]);
    }
}
