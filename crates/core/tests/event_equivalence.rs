//! Core-vs-trait equivalence on the settled event stream.
//!
//! For every organization, the same seeded random insert/access/link
//! sequence is driven through two identically configured caches — one
//! via the bare [`CodeCache::insert_request`] core, one through the
//! [`CacheSession`] trait the serving layers use — and the event
//! streams, their [`InsertReport`] reassembly, the compact summaries and
//! the final [`cce_core::CacheStats`] must match exactly. The trait
//! path's stream leads with the lookup: a hit streams exactly its `Hit`,
//! a miss its `Miss` followed by the core's settled insert. The whole
//! trait-path stream then reconciles with the trait cache's statistics.
//! This is the guarantee that let the legacy `#[deprecated]` insert
//! shims be deleted: every surviving entry point is the same core.

use cce_core::testutil::reconcile;
use cce_core::{
    AccessResult, CacheEvent, CacheOrg, CacheSession, CodeCache, EventBuffer, InsertReport,
    InsertRequest, SuperblockId,
};
use cce_util::{Rng, StdRng};
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
fn core_and_trait_paths_are_equivalent_for_every_org() {
    for (name, core_org, trait_org) in all_orgs(1024) {
        let mut core = CodeCache::new(core_org);
        let mut traited = CodeCache::new(trait_org);
        let mut rng = StdRng::seed_from_u64(0xEC0);
        let mut core_buf = EventBuffer::new();
        let mut trait_buf = EventBuffer::new();
        let mut trait_stream = Vec::new();
        for step in 0..600u32 {
            let id = SuperblockId(rng.gen_range(0..48u64));
            let size = rng.gen_range(16..128u32);
            let partner = rng
                .gen_bool(0.3)
                .then(|| SuperblockId(rng.gen_range(0..48u64)))
                .filter(|p| core.is_resident(*p));
            let req = InsertRequest::new(id, size).with_hint(partner);
            let access = core.access(id);
            trait_buf.clear();
            let outcome = traited
                .access_or_insert(req, &mut trait_buf)
                .unwrap_or_else(|e| panic!("{name}: trait insert failed: {e}"));
            assert_eq!(access, outcome.access, "{name}: access diverged at {step}");
            trait_stream.extend_from_slice(trait_buf.events());
            if access.is_miss() {
                core_buf.clear();
                let summary = core
                    .insert_request(req, &mut core_buf)
                    .unwrap_or_else(|e| panic!("{name}: core insert failed: {e}"));
                // The trait path streams the Miss, then exactly the
                // core's settled stream.
                assert_eq!(
                    trait_buf.events().first(),
                    Some(&CacheEvent::Miss {
                        id,
                        cold: access == AccessResult::ColdMiss
                    }),
                    "{name}: a miss must lead with Miss at step {step}"
                );
                assert_eq!(
                    core_buf.events(),
                    &trait_buf.events()[1..],
                    "{name}: event streams diverged at step {step}"
                );
                assert_eq!(Some(summary), outcome.inserted);
                // The settled stream reassembles into the owned report:
                // identical eviction sequences, unlink counts, byte totals.
                let report = InsertReport::from_events(core_buf.events());
                assert_eq!(summary.padding, report.padding);
                assert_eq!(summary.evictions as usize, report.evictions.len());
                assert_eq!(
                    summary.bytes_evicted,
                    report.evictions.iter().map(|e| e.bytes).sum::<u64>(),
                    "{name}: byte totals diverged at step {step}"
                );
                assert_eq!(
                    summary.links_unlinked,
                    report
                        .evictions
                        .iter()
                        .flat_map(|e| &e.unlinked)
                        .map(|&(_, n)| u64::from(n))
                        .sum::<u64>()
                );
                // Event-stream invariants on the settled stream.
                let mut depth = 0i32;
                for &ev in core_buf.events() {
                    match ev {
                        CacheEvent::EvictionBegin => depth += 1,
                        CacheEvent::EvictionEnd { .. } => depth -= 1,
                        _ => {}
                    }
                    assert!((0..=1).contains(&depth), "{name}: malformed nesting");
                }
                assert_eq!(depth, 0, "{name}: unbalanced EvictionBegin/End");
            } else {
                assert!(outcome.inserted.is_none());
                assert_eq!(
                    trait_buf.events(),
                    &[CacheEvent::Hit { id }],
                    "{name}: a hit emits exactly its Hit"
                );
            }
            if rng.gen_bool(0.4) {
                let to = SuperblockId(rng.gen_range(0..48u64));
                if core.is_resident(id) && core.is_resident(to) {
                    let (x, y) = (core.link(id, to).unwrap(), traited.link(id, to).unwrap());
                    assert_eq!(x, y, "{name}: link outcome diverged");
                }
            }
            assert_eq!(core.used(), traited.used(), "{name}: usage diverged");
        }
        assert_eq!(
            core.stats(),
            traited.stats(),
            "{name}: final statistics diverged"
        );
        reconcile(&trait_stream, traited.stats());
        assert_eq!(
            core.org().resident_entries(),
            traited.org().resident_entries(),
            "{name}: resident sets diverged"
        );
    }
}
