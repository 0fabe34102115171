//! `bench_trace_io`: the offline trace-I/O micro-benchmark.
//!
//! A dependency-free timing command: it times JSON decode vs binary
//! decode of the same trace, and in-memory replay vs streaming replay,
//! with `std::time::Instant` — then emits the comparison as
//! `BENCH_trace_io.json` (via `--out`) so CI can assert the binary path
//! keeps its decode advantage.

use crate::Options;
use cce_dbt::{trace_bin, TraceLog, TraceReader};
use cce_sim::pressure::capacity_for_pressure;
use cce_sim::report::TextTable;
use cce_sim::simulator::SimConfig;
use cce_sim::Replay;
use cce_util::Json;
use cce_workloads::catalog;
use std::time::Instant;

/// Timing repetitions; the minimum is reported (standard practice for
/// wall-clock micro-benchmarks: the minimum is the least noisy).
const REPS: usize = 5;

/// Times `reps` runs of `f` and returns the best wall-clock seconds
/// with the last result. Shared with `bench_grid`.
pub(crate) fn min_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        // cce-analyze: allow(nondet-taint): wall-clock timing is the benchmark's measurement, not cache state
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    // `reps >= 1`, so a result is always present.
    let Some(out) = last else { unreachable!() };
    (best, out)
}

/// Runs the benchmark; writes `BENCH_trace_io.json` to `--out` if given
/// and returns a human-readable table either way.
///
/// # Errors
///
/// Returns a message for I/O or simulation failures.
pub fn bench_trace_io(opts: &Options) -> Result<String, String> {
    // A mid-sized deterministic workload: big enough that decode time is
    // dominated by the event stream, small enough for CI.
    let model = catalog::by_name("gzip").ok_or("catalog is missing gzip")?;
    let log = model.trace(opts.scale, opts.seed);
    if log.events.is_empty() {
        return Err("benchmark trace is empty; raise --scale".to_owned());
    }

    let mut json_bytes = Vec::new();
    log.save(&mut json_bytes).map_err(|e| e.to_string())?;
    let mut bin_bytes = Vec::new();
    trace_bin::save_binary(&log, &mut bin_bytes).map_err(|e| e.to_string())?;

    let (json_decode_s, decoded_j) = min_secs(REPS, || {
        TraceLog::load(json_bytes.as_slice()).map_err(|e| e.to_string())
    });
    let decoded_j = decoded_j?;
    let (bin_decode_s, decoded_b) = min_secs(REPS, || {
        trace_bin::load_binary(bin_bytes.as_slice()).map_err(|e| e.to_string())
    });
    let decoded_b = decoded_b?;
    if decoded_j != decoded_b {
        return Err("json and binary decode disagree".to_owned());
    }

    let config = SimConfig {
        capacity: capacity_for_pressure(log.max_cache_bytes(), 4),
        ..SimConfig::default()
    };
    // End-to-end: decode + replay. The in-memory path decodes JSON then
    // simulates; the streaming path overlaps binary decode with replay.
    let (inmem_replay_s, inmem) = min_secs(REPS, || {
        let log = TraceLog::load(json_bytes.as_slice()).map_err(|e| e.to_string())?;
        Replay::new(&log)
            .config(&config)
            .run()
            .map(cce_sim::ReplayReport::into_solo)
            .map_err(|e| e.to_string())
    });
    let inmem = inmem?;
    let (stream_replay_s, streamed) = min_secs(REPS, || {
        let bytes = bin_bytes.clone();
        let mut reader =
            TraceReader::new(std::io::Cursor::new(bytes)).map_err(|e| e.to_string())?;
        Replay::stream(&mut reader)
            .config(&config)
            .run()
            .map(cce_sim::ReplayReport::into_solo)
            .map_err(|e| e.to_string())
    });
    let streamed = streamed?;
    if inmem != streamed {
        return Err("streaming replay result diverged from in-memory replay".to_owned());
    }

    let events = log.events.len() as f64;
    let mevents = |s: f64| events / s / 1e6;
    let decode_speedup = json_decode_s / bin_decode_s.max(1e-12);
    let replay_speedup = inmem_replay_s / stream_replay_s.max(1e-12);

    let mut t = TextTable::new(
        &format!(
            "Trace I/O: {} events; JSON {} KB vs binary {} KB ({:.1}x smaller)",
            log.events.len(),
            json_bytes.len() / 1024,
            bin_bytes.len() / 1024,
            json_bytes.len() as f64 / bin_bytes.len() as f64
        ),
        ["path", "decode (ms)", "Mevents/s", "decode+replay (ms)"],
    );
    t.row([
        "json (in-memory)".to_owned(),
        format!("{:.2}", json_decode_s * 1e3),
        format!("{:.1}", mevents(json_decode_s)),
        format!("{:.2}", inmem_replay_s * 1e3),
    ]);
    t.row([
        "binary (streamed)".to_owned(),
        format!("{:.2}", bin_decode_s * 1e3),
        format!("{:.1}", mevents(bin_decode_s)),
        format!("{:.2}", stream_replay_s * 1e3),
    ]);
    let mut out = t.to_string();
    out.push_str(&format!(
        "decode speedup {decode_speedup:.1}x, end-to-end speedup {replay_speedup:.1}x\n"
    ));

    if let Some(path) = opts.out.as_deref() {
        let report = Json::obj(vec![
            ("benchmark", Json::from("trace_io")),
            ("events", Json::from(log.events.len() as u64)),
            ("json_bytes", Json::from(json_bytes.len() as u64)),
            ("binary_bytes", Json::from(bin_bytes.len() as u64)),
            ("json_decode_seconds", Json::from(json_decode_s)),
            ("binary_decode_seconds", Json::from(bin_decode_s)),
            ("json_replay_seconds", Json::from(inmem_replay_s)),
            ("stream_replay_seconds", Json::from(stream_replay_s)),
            ("decode_speedup", Json::from(decode_speedup)),
            ("end_to_end_speedup", Json::from(replay_speedup)),
        ]);
        std::fs::write(path, report.to_string_compact())
            .map_err(|e| format!("write {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports_both_paths() {
        let dir = std::env::temp_dir().join("cce_bench_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join("BENCH_trace_io.json")
            .to_string_lossy()
            .into_owned();
        let opts = Options {
            scale: 0.05,
            seed: 2,
            out: Some(path.clone()),
            verbose: false,
            ..Options::default()
        };
        let out = bench_trace_io(&opts).unwrap();
        assert!(out.contains("binary (streamed)"));
        let json = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(json.get("decode_speedup").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(json.get("benchmark").unwrap().as_str(), Some("trace_io"));
        std::fs::remove_file(&path).ok();
    }
}
