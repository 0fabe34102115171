//! Sharding conformance (ISSUE 4 acceptance criteria).
//!
//! 1. A [`ShardedCache`] with **one** shard is event-stream
//!    byte-identical to the bare [`CodeCache`] it wraps — for every one
//!    of the seven organizations ([`testutil::assert_sessions_equivalent`]
//!    checks streams, summaries, statistics and link censuses).
//! 2. Under multi-shard eviction the link population is conserved:
//!    every link ever created is either still live (intra-shard,
//!    cross-shard) or accounted as unlinked / dropped-free, and the
//!    sharded stream — cross-shard unlinks merged in — reconciles with
//!    the aggregated statistics before and after a flush.

use cce_core::testutil::{assert_sessions_equivalent, reconcile};
use cce_core::{
    CacheOrg, CacheSession, CodeCache, EventBuffer, Granularity, InsertRequest, ShardedCache,
    SuperblockId,
};
use common::ORGS;

mod common;

type OrgPair = (&'static str, Box<dyn CacheOrg>, Box<dyn CacheOrg>);

/// Every built-in organization at `capacity`, two identical instances
/// each.
fn all_orgs(capacity: u64) -> Vec<OrgPair> {
    let build = |kind| common::org(kind, capacity).unwrap();
    ORGS.into_iter()
        .map(|kind| (kind, build(kind), build(kind)))
        .collect()
}

#[test]
fn single_shard_is_byte_identical_to_a_bare_cache_for_every_org() {
    for (name, bare_org, sharded_org) in all_orgs(1024) {
        let mut bare = CodeCache::new(bare_org);
        let mut sharded =
            ShardedCache::new(vec![CodeCache::new(sharded_org)]).expect("one shard is valid");
        // The driver panics with the org baked into the assertion
        // context via this eprintln-free wrapper: run per-org so a
        // failure names the culprit.
        eprintln!("N=1 equivalence: {name}");
        assert_sessions_equivalent(&mut bare, &mut sharded, 800);
    }
}

#[test]
fn sharded_link_population_is_conserved_under_eviction() {
    for shards in [2u32, 4, 8] {
        for g in [
            Granularity::Flush,
            Granularity::units(4),
            Granularity::Superblock,
        ] {
            let mut cache = ShardedCache::with_granularity(g, 4096, shards).unwrap();
            let mut stream = EventBuffer::new();
            let mut last: Option<SuperblockId> = None;
            let mut crossings = 0u64;
            for i in 0..2000u64 {
                let id = SuperblockId(i % 61);
                let out = cache
                    .access_or_insert(
                        InsertRequest::new(id, 32 + (i % 7) as u32 * 16),
                        &mut stream,
                    )
                    .expect("in-range insert");
                if out.is_miss() {
                    if let Some(from) = last {
                        if from != id
                            && cache.is_resident(from)
                            && cache.is_resident(id)
                            && cache.link(from, id).expect("both resident")
                            && cache.shard_of(from) != cache.shard_of(id)
                        {
                            crossings += 1;
                        }
                    }
                    last = Some(id);
                }
            }
            let stats = cache.stats_snapshot();
            let (intra, inter) = cache.link_census();
            assert!(stats.links_created > 0, "workload created no links");
            assert!(crossings > 0, "workload never crossed a shard boundary");
            assert_eq!(
                stats.links_created,
                stats.links_unlinked + stats.links_dropped_free + intra + inter,
                "census not conserved at shards={shards} g={g:?}"
            );
            reconcile(stream.events(), &stats);
            // Flushing everything moves every live link into the
            // unlinked/dropped totals.
            cache.flush(&mut stream);
            let stats = cache.stats_snapshot();
            reconcile(stream.events(), &stats);
            assert_eq!(cache.link_census(), (0, 0));
            assert_eq!(
                stats.links_created,
                stats.links_unlinked + stats.links_dropped_free,
                "flush leaked links at shards={shards} g={g:?}"
            );
        }
    }
}
