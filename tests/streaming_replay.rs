//! Conformance tests for streaming trace ingest (DESIGN.md §11): the
//! streaming replay path must be *indistinguishable* from the in-memory
//! path — same `SimResult`, same cache-event stream — for every cache
//! organization, every shard count, and every reader chunk size. These
//! pins are what lets the sweep tooling switch ingest paths freely.

use cce::core::testutil::{reconcile, Tee};
use cce::core::{
    AdaptiveUnits, AffinityUnits, CacheEvent, CacheOrg, CacheSession, CodeCache, FineFifo,
    Generational, Granularity, LruCache, PreemptiveFlush, ShardedCache, UnitFifo,
};
use cce::dbt::trace_bin::{save_binary_chunked, TraceReader};
use cce::dbt::{SharedTrace, TraceLog};
use cce::sim::pressure::capacity_for_pressure;
use cce::sim::simulator::{SimConfig, SimError, SimResult};
use cce::sim::{EventSource, Replay, ReplayReport};
use cce::workloads::catalog;
use std::sync::{Arc, Mutex};

fn trace() -> TraceLog {
    catalog::by_name("gzip").unwrap().trace(0.08, 9)
}

fn binary(log: &TraceLog, chunk: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    save_binary_chunked(log, &mut buf, chunk).unwrap();
    buf
}

fn reader(log: &TraceLog, chunk: usize) -> TraceReader {
    TraceReader::new(std::io::Cursor::new(binary(log, chunk))).unwrap()
}

/// Solo in-memory (or shared) replay through the front-door builder.
fn simulate<T: EventSource>(trace: &T, cfg: &SimConfig) -> Result<SimResult, SimError> {
    Replay::new(trace)
        .config(cfg)
        .run()
        .map(ReplayReport::into_solo)
}

fn config(log: &TraceLog) -> SimConfig {
    SimConfig {
        capacity: capacity_for_pressure(log.max_cache_bytes(), 4),
        ..SimConfig::default()
    }
}

/// Every built-in cache organization at `capacity`, by label, plus a
/// two-shard cache whose cross-shard `Unlinked` merges reach the stream.
fn organizations(capacity: u64) -> Vec<(&'static str, Box<dyn CacheSession>)> {
    fn bare(org: impl CacheOrg + 'static) -> Box<dyn CacheSession> {
        Box::new(CodeCache::new(Box::new(org)))
    }
    let sharded = ShardedCache::with_granularity(Granularity::units(4), capacity, 2).unwrap();
    vec![
        ("flush", bare(UnitFifo::flush_policy(capacity).unwrap())),
        ("unit_fifo", bare(UnitFifo::new(capacity, 8).unwrap())),
        ("fine_fifo", bare(FineFifo::new(capacity).unwrap())),
        ("lru", bare(LruCache::new(capacity).unwrap())),
        ("preemptive", bare(PreemptiveFlush::new(capacity).unwrap())),
        ("generational", bare(Generational::new(capacity).unwrap())),
        (
            "adaptive",
            bare(AdaptiveUnits::new(capacity, 8, 1, 256).unwrap()),
        ),
        ("affinity", bare(AffinityUnits::new(capacity, 8).unwrap())),
        ("sharded(2)", Box::new(sharded)),
    ]
}

/// Replays `label`'s session from `source`, recording its complete
/// event stream with a [`Tee`].
fn replay_recorded(
    label: &'static str,
    cfg: &SimConfig,
    source: Replay<'_>,
) -> (SimResult, Vec<CacheEvent>) {
    let session = organizations(cfg.capacity)
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, s)| s)
        .unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let recorder = Arc::clone(&log);
    let tee = Tee::new(session, move |ev| recorder.lock().unwrap().push(ev));
    let result = source
        .config(cfg)
        .session(tee, label)
        .run()
        .unwrap()
        .into_solo();
    let events = log.lock().unwrap().clone();
    (result, events)
}

#[test]
fn streaming_matches_in_memory_for_every_organization() {
    let log = trace();
    let cfg = config(&log);
    let shared = SharedTrace::from_log(&log);
    for (label, _) in organizations(cfg.capacity) {
        let (expected, expected_events) = replay_recorded(label, &cfg, Replay::new(&log));
        assert!(!expected_events.is_empty(), "{label}: tee saw nothing");
        reconcile(&expected_events, &expected.stats);
        if label == "sharded(2)" {
            assert!(
                expected_events
                    .iter()
                    .any(|e| matches!(e, CacheEvent::Unlinked { .. })),
                "{label}: the sharded stream carries no unlinks"
            );
        }
        let (got, events) = replay_recorded(label, &cfg, Replay::new(&shared));
        assert_eq!(got, expected, "{label}: SharedTrace SimResult diverged");
        assert_eq!(
            events, expected_events,
            "{label}: SharedTrace cache-event stream diverged"
        );
        let mut rd = reader(&log, 500);
        let (got, events) = replay_recorded(label, &cfg, Replay::stream(&mut rd));
        assert_eq!(got, expected, "{label}: TraceReader SimResult diverged");
        assert_eq!(
            events, expected_events,
            "{label}: TraceReader cache-event stream diverged"
        );
    }
}

#[test]
fn streaming_is_chunk_size_independent() {
    let log = trace();
    let cfg = config(&log);
    let expected = simulate(&log, &cfg).unwrap();
    for chunk in [1usize, 7, 100, 4096, 1 << 20] {
        let mut rd = reader(&log, chunk);
        let got = Replay::stream(&mut rd)
            .config(&cfg)
            .run()
            .unwrap()
            .into_solo();
        assert_eq!(got, expected, "chunk={chunk}");
    }
}

#[test]
fn streaming_matches_in_memory_across_shard_counts() {
    let log = trace();
    let cfg = config(&log);
    for shards in [1u32, 2, 4] {
        let expected = Replay::new(&log)
            .config(&cfg)
            .shards(shards)
            .run()
            .unwrap()
            .into_solo();
        let mut rd = reader(&log, 333);
        let got = Replay::stream(&mut rd)
            .config(&cfg)
            .shards(shards)
            .run()
            .unwrap()
            .into_solo();
        assert_eq!(got, expected, "shards={shards}");
    }
}

#[test]
fn streaming_matches_across_granularities() {
    let log = trace();
    let cfg = config(&log);
    for g in [
        Granularity::Flush,
        Granularity::units(2),
        Granularity::units(16),
        Granularity::Superblock,
    ] {
        let cfg = SimConfig {
            granularity: g,
            ..cfg
        };
        let expected = simulate(&log, &cfg).unwrap();
        let mut rd = reader(&log, 250);
        let streamed = Replay::stream(&mut rd)
            .config(&cfg)
            .run()
            .unwrap()
            .into_solo();
        assert_eq!(streamed, expected, "{g}");
    }
}

#[test]
fn shared_trace_replay_matches_in_memory() {
    let log = trace();
    let cfg = config(&log);
    let expected = simulate(&log, &cfg).unwrap();
    // Via from_log and via a streamed reader: both must agree.
    assert_eq!(
        simulate(&SharedTrace::from_log(&log), &cfg).unwrap(),
        expected
    );
    let shared = SharedTrace::collect(reader(&log, 640)).unwrap();
    assert_eq!(simulate(&shared, &cfg).unwrap(), expected);
    // Replaying the same shared chunks twice is free of interference.
    assert_eq!(simulate(&shared, &cfg).unwrap(), expected);
}

#[test]
fn streaming_replay_memory_stays_bounded() {
    // The bounded-memory receipt demanded by the acceptance criteria: a
    // trace with far more events than the reader's buffer capacity,
    // asserted through the reader's own high-water mark.
    let log = trace();
    let total = log.events.len();
    let chunk = (total / 64).max(1); // >= 64 chunks in flight over the run
    assert!(total >= 10 * 4 * chunk, "trace too small for the bound");
    let cfg = config(&log);
    let mut rd = TraceReader::with_depth(std::io::Cursor::new(binary(&log, chunk)), 2).unwrap();
    let r = Replay::stream(&mut rd)
        .config(&cfg)
        .run()
        .unwrap()
        .into_solo();
    assert_eq!(r.stats.accesses, total as u64);
    let hw = rd.high_water_events();
    assert!(hw > 0, "the decoder never ran ahead at all");
    // depth(2) + the chunk being handed over + the one being decoded.
    assert!(hw <= 4 * chunk, "high water {hw} with chunk {chunk}");
    assert!(
        hw * 10 <= total,
        "high water {hw} is not small relative to {total} total events"
    );
}

#[test]
fn sweep_over_shared_traces_matches_sweep_over_logs() {
    let logs: Vec<TraceLog> = ["gzip", "mcf"]
        .iter()
        .map(|n| catalog::by_name(n).unwrap().trace(0.08, 9))
        .collect();
    let shared: Vec<SharedTrace> = logs
        .iter()
        .map(|l| SharedTrace::collect(reader(l, 512)).unwrap())
        .collect();
    let gs = [Granularity::Flush, Granularity::units(8)];
    let ps = [2u32, 6];
    let base = SimConfig::default();
    let a = Replay::matrix(&logs)
        .granularities(&gs)
        .pressures(&ps)
        .shard_counts(&[1, 2])
        .config(&base)
        .jobs(4)
        .run()
        .unwrap();
    let b = Replay::matrix(&shared)
        .granularities(&gs)
        .pressures(&ps)
        .shard_counts(&[1, 2])
        .config(&base)
        .jobs(4)
        .run()
        .unwrap();
    assert_eq!(a, b, "shared-chunk sweep must equal in-memory sweep");
}
