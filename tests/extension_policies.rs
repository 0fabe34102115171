//! Integration tests for the beyond-the-paper policies (DESIGN.md §7):
//! preemptive flush, adaptive granularity and the LRU baseline.

use cce::core::{
    AdaptiveUnits, CacheOrg, CodeCache, InsertRequest, LruCache, NullSink, PreemptiveFlush,
    SuperblockId, UnitFifo,
};
use cce::workloads::catalog;
use std::collections::HashMap;

/// Replays a model trace against an arbitrary org-backed cache.
fn replay(mut cache: CodeCache, trace: &cce::dbt::TraceLog) -> CodeCache {
    let sizes: HashMap<SuperblockId, u32> =
        trace.superblocks.iter().map(|s| (s.id, s.size)).collect();
    for ev in &trace.events {
        let cce::dbt::TraceEvent::Access { id, direct_from } = *ev;
        if cache.access(id).is_miss() {
            match cache.insert_request(InsertRequest::new(id, sizes[&id]), &mut NullSink) {
                Ok(_) => {}
                Err(cce::core::CacheError::BlockTooLarge { .. }) => continue,
                Err(e) => panic!("insert failed: {e}"),
            }
        }
        if let Some(from) = direct_from {
            if cache.is_resident(from) && cache.is_resident(id) {
                cache.link(from, id).unwrap();
            }
        }
    }
    cache
}

#[test]
fn preemptive_flush_fires_on_phase_heavy_workloads() {
    // Interactive apps have many phases: the phase detector should find
    // real boundaries under pressure.
    let trace = catalog::by_name("winzip").unwrap().trace(0.15, 5);
    let capacity = trace.max_cache_bytes() / 4;
    let org = PreemptiveFlush::with_detector(capacity, 64, 0.5, 0.4).unwrap();
    let cache = replay(CodeCache::new(Box::new(org)), &trace);
    assert!(cache.stats().eviction_invocations > 0);
    // Preemptive flushing must never unlink through the back-pointer
    // table: whole-cache flushes drop links for free, like FLUSH.
    assert_eq!(cache.stats().unlink_operations, 0);
}

#[test]
fn preemptive_flush_is_competitive_with_plain_flush() {
    let trace = catalog::by_name("parser").unwrap().trace(0.15, 5);
    let capacity = trace.max_cache_bytes() / 6;
    let plain = replay(
        CodeCache::new(Box::new(UnitFifo::flush_policy(capacity).unwrap())),
        &trace,
    );
    let preemptive = replay(
        CodeCache::new(Box::new(PreemptiveFlush::new(capacity).unwrap())),
        &trace,
    );
    let plain_rate = plain.stats().miss_rate();
    let preemptive_rate = preemptive.stats().miss_rate();
    // Dynamo found preemptive flushing better than naïve flushing; at
    // minimum it must be in the same league (within 20% relative).
    assert!(
        preemptive_rate <= plain_rate * 1.2,
        "preemptive {preemptive_rate} vs plain {plain_rate}"
    );
}

#[test]
fn adaptive_units_move_toward_the_medium_grains() {
    let trace = catalog::by_name("crafty").unwrap().trace(0.2, 5);
    let capacity = trace.max_cache_bytes() / 6;
    // Start at the coarse extreme: miss pressure should drive the unit
    // count up.
    let mut org = AdaptiveUnits::new(capacity, 1, 1, 256).unwrap();
    org.set_epoch(64);
    let sizes: HashMap<SuperblockId, u32> =
        trace.superblocks.iter().map(|s| (s.id, s.size)).collect();
    let mut cache = CodeCache::new(Box::new(org));
    for ev in &trace.events {
        let cce::dbt::TraceEvent::Access { id, .. } = *ev;
        if cache.access(id).is_miss() {
            let _ = cache.insert_request(InsertRequest::new(id, sizes[&id]), &mut NullSink);
        }
    }
    let label = cache.granularity().label();
    assert_ne!(label, "FLUSH", "adaptation never left the coarse extreme");
}

#[test]
fn lru_pays_fragmentation_on_real_workloads() {
    // §3.3's argument: variable-size blocks + recency eviction ⇒ holes.
    let trace = catalog::by_name("vortex").unwrap().trace(0.15, 5);
    let capacity = trace.max_cache_bytes() / 6;
    let cache = replay(
        CodeCache::new(Box::new(LruCache::new(capacity).unwrap())),
        &trace,
    );
    let org = cache.org();
    assert!(org.used() <= capacity);
    assert!(cache.stats().eviction_invocations > 0);
    // Down-cast via the debug formatting is ugly; instead rerun the raw
    // org to read its stall counter directly.
    let mut lru = LruCache::new(capacity).unwrap();
    let sizes: HashMap<SuperblockId, u32> =
        trace.superblocks.iter().map(|s| (s.id, s.size)).collect();
    let mut resident_misses = 0u64;
    for ev in &trace.events {
        let cce::dbt::TraceEvent::Access { id, .. } = *ev;
        if lru.contains(id) {
            lru.note_hit(id);
        } else {
            resident_misses += 1;
            let _ = lru.insert_events(id, sizes[&id], None, &mut NullSink);
        }
    }
    assert!(resident_misses > 0);
    assert!(
        lru.fragmentation_stalls() > 0,
        "a churning variable-size LRU cache must hit fragmentation stalls"
    );
}

#[test]
fn fifo_family_never_fragments() {
    // The counterpoint to the LRU test: FIFO insertion order equals
    // address order, so capacity is always fully usable (no stalls, no
    // compaction) — the paper's §3.3 rationale for FIFO.
    let trace = catalog::by_name("vortex").unwrap().trace(0.15, 5);
    let capacity = trace.max_cache_bytes() / 6;
    let fine = replay(
        CodeCache::new(Box::new(cce::core::FineFifo::new(capacity).unwrap())),
        &trace,
    );
    // Every eviction invocation freed exactly contiguous FIFO-order
    // blocks; bookkeeping identity: bytes inserted = evicted + resident.
    let s = fine.stats();
    assert_eq!(s.bytes_inserted, s.bytes_evicted + fine.used());
}
