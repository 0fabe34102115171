//! Utility commands: dump benchmark traces to disk (JSON or binary),
//! convert saved logs between the two formats, and replay saved logs —
//! the paper's save-and-reuse workflow as a command-line tool.

use crate::Options;
use cce_core::Granularity;
use cce_dbt::trace_bin;
use cce_dbt::{SharedTrace, TraceLog};
use cce_sim::pressure::{capacity_for_pressure, effective_granularity, TraceSizing};
use cce_sim::report::{pct, TextTable};
use cce_sim::simulator::SimConfig;
use cce_sim::{Replay, ReplayReport};
use cce_workloads::catalog;
use std::fmt::Write as _;
use std::path::Path;

/// The `--format` flag resolved: how a tool should write a trace log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Human-readable JSON ([`TraceLog::save`]).
    Json,
    /// Chunked binary (`trace_bin`, DESIGN.md §11).
    Binary,
}

impl TraceFormat {
    /// Parses `--format` (defaulting to JSON when absent).
    pub fn from_flag(flag: Option<&str>) -> Result<TraceFormat, String> {
        match flag {
            None | Some("json") => Ok(TraceFormat::Json),
            Some("binary") | Some("bin") => Ok(TraceFormat::Binary),
            Some(other) => Err(format!("unknown --format {other} (json|binary)")),
        }
    }
}

fn write_log(log: &TraceLog, out: &str, format: TraceFormat) -> Result<(), String> {
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let w = std::io::BufWriter::new(file);
    match format {
        TraceFormat::Json => log.save(w),
        TraceFormat::Binary => log.save_binary(w),
    }
    .map_err(|e| format!("write {out}: {e}"))
}

/// `trace`: generate a benchmark's access trace and write it to disk.
///
/// Requires `--bench <name>` and `--out <path>`; `--format json|binary`
/// picks the encoding (default JSON).
pub fn trace(opts: &Options) -> Result<String, String> {
    let bench = opts
        .bench
        .as_deref()
        .ok_or("trace requires --bench <table-1 name>")?;
    let out = opts
        .out
        .as_deref()
        .ok_or("trace requires --out <path> for the log")?;
    let format = TraceFormat::from_flag(opts.format.as_deref())?;
    let model = catalog::by_name(bench).ok_or_else(|| format!("unknown benchmark {bench}"))?;
    let log = model.trace(opts.scale, opts.seed);
    write_log(&log, out, format)?;
    let s = log.summary();
    let mut msg = String::new();
    let _ = writeln!(
        msg,
        "wrote {out}: {} superblocks, {} accesses, maxCache {} KB \
         (median size {} B, mean out-degree {:.2})",
        s.superblock_count,
        s.accesses,
        s.total_code_bytes / 1024,
        s.median_size,
        s.mean_out_degree
    );
    Ok(msg)
}

/// `convert`: re-encode a saved trace log. The input format is
/// auto-detected by magic; the output format is `--format` if given,
/// otherwise the opposite of the input (JSON ↔ binary).
///
/// Requires `--log <in>` and `--out <out>`.
pub fn convert(opts: &Options) -> Result<String, String> {
    let path = opts
        .log
        .as_deref()
        .ok_or("convert requires --log <path to a saved trace>")?;
    let out = opts.out.as_deref().ok_or("convert requires --out <path>")?;
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let (log, from) = if trace_bin::is_binary(&bytes) {
        let log =
            trace_bin::load_binary(bytes.as_slice()).map_err(|e| format!("parse {path}: {e}"))?;
        (log, TraceFormat::Binary)
    } else {
        let log = TraceLog::load(bytes.as_slice()).map_err(|e| format!("parse {path}: {e}"))?;
        (log, TraceFormat::Json)
    };
    let to = match opts.format.as_deref() {
        Some(f) => TraceFormat::from_flag(Some(f))?,
        None => match from {
            TraceFormat::Json => TraceFormat::Binary,
            TraceFormat::Binary => TraceFormat::Json,
        },
    };
    write_log(&log, out, to)?;
    Ok(format!(
        "converted {path} ({from:?}) -> {out} ({to:?}): {} superblocks, {} events\n",
        log.superblocks.len(),
        log.events.len()
    ))
}

/// `replay`: load a saved trace (JSON or binary, auto-detected — binary
/// logs are streamed in through the decode thread) and simulate it at
/// one or all granularities.
///
/// Requires `--log <path>`; `--pressure <n>` defaults to 2. With
/// `--tenants N` the trace is replayed as N identical guests sharing one
/// four-shard concurrent cache on `--threads T` workers (default 1) —
/// every tenant's row-feeding result is byte-identical to the solo
/// replay, which this tool re-checks on every run.
pub fn replay(opts: &Options) -> Result<String, String> {
    let path = opts
        .log
        .as_deref()
        .ok_or("replay requires --log <path to a saved trace>")?;
    // Decode once (streamed for binary), replay the shared chunks at
    // every granularity — the sweep pattern in miniature.
    let trace = SharedTrace::open(Path::new(path)).map_err(|e| format!("load {path}: {e}"))?;
    let pressure = opts.pressure.unwrap_or(2);
    let sizing = TraceSizing::of_source(&trace);
    let capacity = capacity_for_pressure(sizing.max_cache_bytes, pressure);
    let tenants = opts.tenants.unwrap_or(1);
    let threads = opts.threads.unwrap_or(1);
    if opts.threads.is_some() && opts.tenants.is_none() {
        return Err("--threads requires --tenants".to_owned());
    }

    let title = if tenants > 1 {
        format!(
            "Replay of {} ({} accesses) at pressure {pressure} ({capacity} B) — \
             {tenants} tenants, {threads} thread(s), 4 shards",
            trace.name, trace.event_count
        )
    } else {
        format!(
            "Replay of {} ({} accesses) at pressure {pressure} ({capacity} B)",
            trace.name, trace.event_count
        )
    };
    let mut t = TextTable::new(
        &title,
        [
            "granularity",
            "miss rate",
            "evictions",
            "unlink ops",
            "overhead (instr)",
        ],
    );
    for g in Granularity::spectrum(8) {
        let eff = effective_granularity(g, capacity, sizing.max_block_bytes);
        let config = SimConfig {
            granularity: eff,
            capacity,
            ..SimConfig::default()
        };
        let replay = Replay::new(&trace).config(&config);
        let r = if tenants > 1 {
            // N identical guests, one shared four-shard concurrent cache;
            // per-tenant determinism means every tenant must agree with
            // tenant 0.
            let mut results = replay
                .shards(4)
                .tenants(tenants as usize)
                .threads(threads)
                .run()
                .map_err(|e| format!("simulate: {e}"))?
                .into_tenants();
            if results.iter().any(|r| *r != results[0]) {
                return Err("tenants replaying the same trace diverged".to_owned());
            }
            // The rows report one guest; swap_remove avoids a clone.
            results.swap_remove(0)
        } else {
            replay
                .run()
                .map(ReplayReport::into_solo)
                .map_err(|e| format!("simulate: {e}"))?
        };
        t.row([
            g.label(),
            pct(r.stats.miss_rate()),
            r.stats.eviction_invocations.to_string(),
            r.stats.unlink_operations.to_string(),
            format!("{:.3e}", r.total_overhead()),
        ]);
    }
    let mut out = t.to_string();
    if tenants > 1 {
        out.push_str(
            "Per-tenant rows are identical across all tenants (checked every\n\
             run); the table shows tenant 0.\n",
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_then_replay_roundtrip() {
        let dir = std::env::temp_dir().join("cce_tools_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mcf.json").to_string_lossy().into_owned();
        let opts = Options {
            scale: 0.1,
            seed: 5,
            out: Some(path.clone()),
            bench: Some("mcf".to_owned()),
            verbose: false,
            ..Options::default()
        };
        let msg = trace(&opts).unwrap();
        assert!(msg.contains("superblocks"));

        let replay_opts = Options {
            log: Some(path.clone()),
            pressure: Some(4),
            out: None,
            bench: None,
            ..Options::default()
        };
        let table = replay(&replay_opts).unwrap();
        assert!(table.contains("FLUSH"));
        assert!(table.contains("FIFO"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn binary_trace_convert_and_replay_agree_with_json() {
        let dir = std::env::temp_dir().join("cce_tools_bin_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jpath = dir.join("gzip.json").to_string_lossy().into_owned();
        let bpath = dir.join("gzip.cbt").to_string_lossy().into_owned();
        let back = dir.join("gzip_back.json").to_string_lossy().into_owned();

        // Write the same workload in both encodings.
        let base = Options {
            scale: 0.05,
            seed: 3,
            bench: Some("gzip".to_owned()),
            verbose: false,
            ..Options::default()
        };
        trace(&Options {
            out: Some(jpath.clone()),
            ..base.clone()
        })
        .unwrap();
        trace(&Options {
            out: Some(bpath.clone()),
            format: Some("binary".to_owned()),
            ..base.clone()
        })
        .unwrap();

        // convert binary -> JSON roundtrips to the original JSON log.
        let msg = convert(&Options {
            log: Some(bpath.clone()),
            out: Some(back.clone()),
            ..Options::default()
        })
        .unwrap();
        assert!(msg.contains("Binary) -> "));
        let a = TraceLog::load(std::fs::File::open(&jpath).unwrap()).unwrap();
        let b = TraceLog::load(std::fs::File::open(&back).unwrap()).unwrap();
        assert_eq!(a, b);

        // Replaying the streamed binary matches replaying the JSON.
        let replay_of = |p: &str| {
            replay(&Options {
                log: Some(p.to_owned()),
                pressure: Some(3),
                ..Options::default()
            })
            .unwrap()
        };
        assert_eq!(replay_of(&jpath), replay_of(&bpath));

        for p in [&jpath, &bpath, &back] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn concurrent_replay_is_thread_count_invariant() {
        let dir = std::env::temp_dir().join("cce_tools_tenant_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vortex.json").to_string_lossy().into_owned();
        trace(&Options {
            scale: 0.05,
            seed: 9,
            bench: Some("vortex".to_owned()),
            out: Some(path.clone()),
            verbose: false,
            ..Options::default()
        })
        .unwrap();

        let body_of = |tenants: Option<u32>, threads: Option<usize>| {
            let out = replay(&Options {
                log: Some(path.clone()),
                pressure: Some(4),
                tenants,
                threads,
                ..Options::default()
            })
            .unwrap();
            // Strip the title and footer; the numeric rows must agree.
            out.lines()
                .filter(|l| l.contains('%'))
                .map(str::to_owned)
                .collect::<Vec<_>>()
        };
        // Solo replay exercises the unsharded path; the tenant rows run
        // over a 4-shard concurrent cache, so they are compared across
        // thread counts (the determinism claim), not against solo.
        assert!(!body_of(None, None).is_empty());
        let single = body_of(Some(3), Some(1));
        assert!(!single.is_empty());
        assert_eq!(single, body_of(Some(3), Some(2)));

        let err = replay(&Options {
            log: Some(path.clone()),
            threads: Some(2),
            ..Options::default()
        })
        .unwrap_err();
        assert!(err.contains("--tenants"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_format_flag_is_an_error() {
        let opts = Options {
            bench: Some("mcf".to_owned()),
            out: Some("/tmp/x.json".to_owned()),
            format: Some("xml".to_owned()),
            ..Options::default()
        };
        assert!(trace(&opts).unwrap_err().contains("unknown --format"));
        assert!(convert(&Options::default()).unwrap_err().contains("--log"));
    }

    #[test]
    fn missing_arguments_are_reported() {
        let opts = Options::default();
        assert!(trace(&opts).unwrap_err().contains("--bench"));
        assert!(replay(&opts).unwrap_err().contains("--log"));
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        let opts = Options {
            bench: Some("nope".to_owned()),
            out: Some("/tmp/x.json".to_owned()),
            ..Options::default()
        };
        assert!(trace(&opts).unwrap_err().contains("unknown benchmark"));
    }
}
