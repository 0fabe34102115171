//! `bench_concurrent`: throughput-per-thread micro-benchmark of the
//! concurrent serving layer.
//!
//! Replays four tenants through one shared four-shard
//! `ConcurrentSession` at 1, 2 and 4 worker threads and reports
//! events/second per configuration, `std::time::Instant`-timed like the
//! other offline benches. The JSON report (`BENCH_concurrent.json` via `--out`)
//! records `available_parallelism` alongside the timings: on a
//! single-CPU host the thread axis measures contention overhead, not
//! speedup. With `--smoke` on a host with at least two CPUs, the run
//! fails unless two threads beat one by [`SMOKE_SCALING_FLOOR`]: tenants
//! own their lanes, so a lower ratio means contention came back.

use crate::bench_io::min_secs;
use crate::Options;
use cce_core::{ConcurrentSession, Granularity, TenantConfig};
use cce_dbt::SharedTrace;
use cce_sim::pressure::{capacity_for_pressure, TraceSizing};
use cce_sim::report::TextTable;
use cce_sim::Replay;
use cce_util::Json;
use cce_workloads::catalog;

/// Timing repetitions; the minimum is reported.
const REPS: usize = 3;

/// The thread axis.
const THREADS: [usize; 3] = [1, 2, 4];

/// Tenants per run (one trace each).
const TENANTS: [&str; 4] = ["gzip", "crafty", "gcc", "perlbmk"];

/// Minimum 2-thread-over-1-thread speedup `--smoke` enforces when the
/// host has two CPUs. Below the ideal 2x because the mix is uneven:
/// worker 0 serves gzip+gcc and worker 1 crafty+perlbmk.
const SMOKE_SCALING_FLOOR: f64 = 1.1;

/// Runs the benchmark; writes `BENCH_concurrent.json` to `--out` if
/// given and returns a human-readable table either way.
///
/// # Errors
///
/// Returns a message for I/O or simulation failures, or a `--smoke`
/// gate miss.
pub fn bench_concurrent(opts: &Options) -> Result<String, String> {
    let traces: Vec<SharedTrace> = TENANTS
        .iter()
        .map(|name| {
            let model = catalog::by_name(name).ok_or_else(|| format!("catalog missing {name}"))?;
            Ok(SharedTrace::from_log(&model.trace(opts.scale, opts.seed)))
        })
        .collect::<Result<_, String>>()?;
    let total_events: u64 = traces.iter().map(|t| t.event_count).sum();
    if total_events == 0 {
        return Err("benchmark traces are empty; raise --scale".to_owned());
    }
    // Per-tenant capacity at pressure 4 of the largest tenant, so every
    // configuration replays the same work.
    let capacity = traces
        .iter()
        .map(|t| capacity_for_pressure(TraceSizing::of_source(t).max_cache_bytes, 4))
        .max()
        .unwrap_or(1);

    // cce-analyze: allow(nondet-taint): reported as machine context alongside throughput, never feeds cache decisions
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut rows = Vec::with_capacity(THREADS.len());
    let mut baseline = None;
    for threads in THREADS {
        // A fresh session per repetition: every run starts cold.
        let (secs, results) = min_secs(REPS, || {
            let tenants = traces
                .iter()
                .map(|_| TenantConfig::with_granularity(Granularity::Superblock, capacity))
                .collect();
            let session = ConcurrentSession::new(tenants, 4, None).map_err(|e| e.to_string())?;
            Replay::concurrent(&session, &traces)
                .threads(threads)
                .run()
                .map(cce_sim::ReplayReport::into_tenants)
                .map_err(|e| e.to_string())
        });
        let results = results?;
        if results.len() != traces.len() {
            return Err("concurrent replay dropped a tenant".to_owned());
        }
        let base = *baseline.get_or_insert(secs);
        rows.push((threads, secs, base / secs.max(1e-12)));
    }

    let mut t = TextTable::new(
        &format!(
            "Concurrent serving throughput — {} tenants, 4 shards, {total_events} events \
             ({parallelism} CPU(s) available)",
            traces.len()
        ),
        ["threads", "wall (ms)", "Mevents/s", "vs 1 thread"],
    );
    for &(threads, secs, speedup) in &rows {
        t.row([
            threads.to_string(),
            format!("{:.2}", secs * 1e3),
            format!("{:.2}", total_events as f64 / secs / 1e6),
            format!("{speedup:.2}x"),
        ]);
    }
    let mut out = t.to_string();
    out.push_str(
        "Per-tenant results are byte-identical across every row (the\n\
         conformance suite holds at any thread count); only wall clock moves.\n",
    );

    if let Some(path) = opts.out.as_deref() {
        let mut fields = vec![
            ("benchmark", Json::from("concurrent")),
            ("tenants", Json::from(traces.len() as u64)),
            ("shards", Json::from(4u64)),
            ("events", Json::from(total_events)),
            ("available_parallelism", Json::from(parallelism as u64)),
        ];
        for &(threads, secs, speedup) in &rows {
            // Field names stay stable for CI: threads_<n>_seconds etc.
            fields.push((
                match threads {
                    1 => "threads_1_seconds",
                    2 => "threads_2_seconds",
                    _ => "threads_4_seconds",
                },
                Json::from(secs),
            ));
            fields.push((
                match threads {
                    1 => "threads_1_speedup",
                    2 => "threads_2_speedup",
                    _ => "threads_4_speedup",
                },
                Json::from(speedup),
            ));
        }
        let report = Json::obj(fields);
        std::fs::write(path, report.to_string_compact())
            .map_err(|e| format!("write {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    let two = rows.iter().find(|r| r.0 == 2).map_or(1.0, |r| r.2);
    if opts.smoke && parallelism >= 2 && two < SMOKE_SCALING_FLOOR {
        return Err(format!(
            "--smoke: 2-thread speedup {two:.2}x is below the {SMOKE_SCALING_FLOOR}x gate \
             on {parallelism} CPUs\n{out}"
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports_every_thread_count() {
        let dir = std::env::temp_dir().join("cce_bench_concurrent_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join("BENCH_concurrent.json")
            .to_string_lossy()
            .into_owned();
        let opts = Options {
            scale: 0.02,
            seed: 2,
            out: Some(path.clone()),
            verbose: false,
            ..Options::default()
        };
        let out = bench_concurrent(&opts).unwrap();
        assert!(out.contains("vs 1 thread"));
        let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(json.get("benchmark").unwrap().as_str(), Some("concurrent"));
        assert_eq!(json.get("tenants").unwrap().as_u64(), Some(4));
        assert!(
            json.get("available_parallelism").unwrap().as_u64().unwrap() >= 1,
            "parallelism is recorded for interpreting the ratios"
        );
        for key in [
            "threads_1_seconds",
            "threads_2_seconds",
            "threads_4_seconds",
        ] {
            assert!(json.get(key).unwrap().as_f64().unwrap() > 0.0, "{key}");
        }
        std::fs::remove_file(&path).ok();
    }
}
