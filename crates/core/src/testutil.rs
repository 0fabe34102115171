//! Reusable conformance checks for [`CacheOrg`] implementations and
//! [`CacheSession`] event streams.
//!
//! Promoted from an internal `#[cfg(test)]` module so out-of-crate
//! policies (the `custom_policy` example, downstream experiments) can
//! validate themselves against the same contract the seven built-in
//! organizations satisfy. Call [`conformance`] from a test with a fresh
//! instance of your organization:
//!
//! ```
//! use cce_core::{testutil, UnitFifo};
//! testutil::conformance(Box::new(UnitFifo::new(1024, 8).unwrap()));
//! ```
//!
//! The suite drives a generic overflow workload through the event
//! stream ([`CacheOrg::insert_events`]), asserting:
//!
//! * residency, usage and enumeration invariants after every insert;
//! * rejection of duplicate / zero-sized / oversized insertions;
//! * event-grammar invariants — every `EvictionBegin` is closed by an
//!   `EvictionEnd`, invocations are never empty, the byte total carried
//!   by `EvictionEnd` equals the sum of its `Evicted` sizes **and** the
//!   bytes actually freed, and every insert ends with `Inserted`;
//! * `flush_events` empties the cache as a single invocation.
//!
//! For sessions: [`Tee`] records the complete stream of any session —
//! bare, sharded or per-tenant — even while a replay drives it, and
//! [`reconcile`] checks a recorded stream against the session's
//! [`CacheStats`], counter by counter. [`assert_sessions_equivalent`]
//! pins two sessions to byte-identical streams.

use crate::cache::{AccessResult, InsertSummary};
use crate::error::CacheError;
use crate::events::{CacheEvent, EventBuffer, EventSink};
use crate::ids::{Granularity, SuperblockId};
use crate::org::CacheOrg;
use crate::session::{AccessOutcome, CacheSession, InsertRequest};
use crate::stats::CacheStats;
use std::fmt;

/// Checks the event grammar of one insertion's stream and returns the
/// total bytes reported evicted.
///
/// # Panics
///
/// Panics if the stream violates the grammar described in the module
/// docs.
pub fn check_event_grammar(events: &[CacheEvent], id: SuperblockId, size: u32) -> u64 {
    let mut in_invocation = false;
    let mut invocation_bytes = 0u64;
    let mut invocation_blocks = 0usize;
    let mut total_evicted = 0u64;
    let mut inserted_seen = false;
    for (i, &ev) in events.iter().enumerate() {
        assert!(
            !inserted_seen,
            "Inserted must terminate the stream, got {ev:?} after it"
        );
        match ev {
            CacheEvent::Padding { bytes } => {
                assert!(!in_invocation, "Padding inside an invocation");
                assert!(bytes > 0, "zero-byte Padding event");
            }
            CacheEvent::EvictionBegin => {
                assert!(!in_invocation, "nested EvictionBegin at event {i}");
                in_invocation = true;
                invocation_bytes = 0;
                invocation_blocks = 0;
            }
            CacheEvent::Evicted { size, .. } => {
                assert!(in_invocation, "Evicted outside an invocation");
                invocation_bytes += u64::from(size);
                invocation_blocks += 1;
            }
            CacheEvent::EvictionEnd { bytes, .. } => {
                assert!(in_invocation, "EvictionEnd without EvictionBegin");
                assert!(invocation_blocks > 0, "empty eviction invocation");
                assert_eq!(
                    bytes, invocation_bytes,
                    "EvictionEnd byte total disagrees with Evicted events"
                );
                total_evicted += invocation_bytes;
                in_invocation = false;
            }
            CacheEvent::Inserted {
                id: iid,
                size: isize,
            } => {
                assert!(!in_invocation, "Inserted inside an invocation");
                assert_eq!((iid, isize), (id, size), "Inserted carries wrong block");
                inserted_seen = true;
            }
            CacheEvent::Hit { .. } | CacheEvent::Miss { .. } | CacheEvent::Unlinked { .. } => {
                panic!("organizations must not emit {ev:?}");
            }
        }
    }
    assert!(!in_invocation, "unterminated eviction invocation");
    assert!(inserted_seen, "stream did not end with Inserted");
    total_evicted
}

/// Drives `org` through a generic workload and checks the invariants
/// every organization must uphold.
///
/// # Panics
///
/// Panics (with a diagnostic) on any contract violation.
pub fn conformance(mut org: Box<dyn CacheOrg>) {
    let cap = org.capacity();
    assert!(cap > 0);
    assert_eq!(org.used(), 0);
    assert_eq!(org.resident_count(), 0);

    // Insert blocks of varied sizes until well past capacity, checking
    // the event stream of every insertion.
    let mut next = 0u64;
    let sizes = [64u32, 96, 48, 128, 80, 56, 112, 72];
    let mut inserted = Vec::new();
    let mut buf = EventBuffer::new();
    while inserted.iter().map(|&(_, s)| u64::from(s)).sum::<u64>() < cap * 3 {
        let id = SuperblockId(next);
        let size = sizes[(next as usize) % sizes.len()];
        next += 1;
        let used_before = org.used();
        buf.clear();
        org.insert_events(id, size, None, &mut buf)
            .expect("insert must succeed");
        inserted.push((id, size));
        let evicted_bytes = check_event_grammar(buf.events(), id, size);
        // Bytes reported via events equal bytes actually freed.
        assert_eq!(
            org.used(),
            used_before + u64::from(size) - evicted_bytes,
            "event byte totals disagree with the usage delta"
        );
        // Evicted blocks must no longer be resident; the insertee must.
        for &ev in buf.events() {
            if let CacheEvent::Evicted { id: eid, .. } = ev {
                assert!(!org.contains(eid), "evicted {eid} still resident");
            }
        }
        assert!(org.contains(id));
        assert!(org.unit_of(id).is_some());
        // Usage never exceeds capacity.
        assert!(org.used() <= cap, "used {} > capacity {cap}", org.used());
        assert_eq!(
            org.resident_blocks().len(),
            org.resident_count(),
            "resident enumeration disagrees with count"
        );
    }

    // Duplicate, zero-size and oversized insertions are rejected, and
    // a failed insertion leaves no events behind.
    let last = inserted.last().unwrap().0;
    let too_big = u32::try_from(cap + 1).unwrap_or(u32::MAX);
    buf.clear();
    assert!(matches!(
        org.insert_events(last, 64, None, &mut buf),
        Err(CacheError::AlreadyResident(_))
    ));
    assert!(matches!(
        org.insert_events(SuperblockId(u64::MAX), 0, None, &mut buf),
        Err(CacheError::ZeroSize(_))
    ));
    assert!(matches!(
        org.insert_events(SuperblockId(u64::MAX - 1), too_big, None, &mut buf),
        Err(CacheError::BlockTooLarge { .. })
    ));
    assert!(buf.is_empty(), "failed insert leaked events");

    // flush_events empties the cache as one invocation.
    let used_before_flush = org.used();
    buf.clear();
    assert!(org.flush_events(&mut buf), "cache was nonempty");
    let mut begins = 0;
    let mut flushed_bytes = 0u64;
    for &ev in buf.events() {
        match ev {
            CacheEvent::EvictionBegin => begins += 1,
            CacheEvent::EvictionEnd { bytes, .. } => flushed_bytes += bytes,
            CacheEvent::Evicted { .. } => {}
            other => panic!("flush emitted non-eviction event {other:?}"),
        }
    }
    assert_eq!(begins, 1, "flush must be a single invocation");
    assert_eq!(flushed_bytes, used_before_flush);
    assert_eq!(org.used(), 0);
    assert_eq!(org.resident_count(), 0);
    buf.clear();
    assert!(!org.flush_events(&mut buf), "empty cache flushed something");
    assert!(buf.is_empty());
}

/// Drives two [`CacheSession`]s through the same deterministic churn
/// workload (hinted inserts, chaining, re-accesses, a final flush) and
/// asserts they are **event-stream byte-identical** at every step, with
/// matching statistics and link censuses afterwards.
///
/// This is the redesign's safety net: a `ShardedCache` with one shard
/// must be indistinguishable from the bare [`crate::CodeCache`] it wraps,
/// for every organization.
///
/// # Panics
///
/// Panics (with the step number and both streams) on the first
/// divergence.
pub fn assert_sessions_equivalent<A: CacheSession, B: CacheSession>(
    a: &mut A,
    b: &mut B,
    steps: u64,
) {
    assert_eq!(a.capacity(), b.capacity(), "capacities must match");
    let mut buf_a = EventBuffer::new();
    let mut buf_b = EventBuffer::new();
    // xorshift64: deterministic, no external deps.
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut step = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut last: Option<SuperblockId> = None;
    for i in 0..steps {
        let r = step();
        let id = SuperblockId(r % 37);
        let size = 32 + (r >> 8) % 97;
        let hint = last.filter(|_| r & 0x10 != 0);
        let req = InsertRequest::new(id, size as u32).with_hint(hint);
        buf_a.clear();
        buf_b.clear();
        let out_a = a.access_or_insert(req, &mut buf_a);
        let out_b = b.access_or_insert(req, &mut buf_b);
        assert_eq!(out_a, out_b, "step {i}: outcomes diverged for {id}");
        assert_eq!(
            buf_a.events(),
            buf_b.events(),
            "step {i}: event streams diverged for {id}"
        );
        if out_a.is_ok() {
            if let Some(from) = last {
                let can = a.is_resident(from) && a.is_resident(id) && from != id;
                assert_eq!(
                    can,
                    b.is_resident(from) && b.is_resident(id) && from != id,
                    "step {i}: residency diverged"
                );
                if can {
                    assert_eq!(
                        a.link(from, id),
                        b.link(from, id),
                        "step {i}: link diverged"
                    );
                }
            }
            last = Some(id);
        }
        assert_eq!(a.used(), b.used(), "step {i}: usage diverged");
        assert_eq!(
            a.resident_count(),
            b.resident_count(),
            "step {i}: population diverged"
        );
    }
    buf_a.clear();
    buf_b.clear();
    assert_eq!(
        a.flush(&mut buf_a),
        b.flush(&mut buf_b),
        "flush summaries diverged"
    );
    assert_eq!(buf_a.events(), buf_b.events(), "flush streams diverged");
    assert_eq!(
        a.stats_snapshot(),
        b.stats_snapshot(),
        "statistics diverged"
    );
    assert_eq!(a.link_census(), b.link_census(), "link censuses diverged");
}

/// A session wrapper that copies the complete stream of every call into
/// `sink` while passing it on unchanged: `Hit`/`Miss` plus the settled
/// insert of [`CacheSession::access_or_insert`], the settled flush of
/// [`CacheSession::flush`], and the `Hit`/`Miss` of a bare
/// [`CacheSession::access`]. It wraps any session — bare, sharded or
/// per-tenant — so a test can record a session that a replay drives
/// (there, `sink` is usually a closure pushing into shared storage).
pub struct Tee<S, K: EventSink> {
    /// The wrapped session.
    pub session: S,
    /// Receives a copy of every event.
    pub sink: K,
}

impl<S, K: EventSink> Tee<S, K> {
    /// Wraps `session`, copying its stream into `sink`.
    pub fn new(session: S, sink: K) -> Tee<S, K> {
        Tee { session, sink }
    }
}

impl<S: fmt::Debug, K: EventSink> fmt::Debug for Tee<S, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tee")
            .field("session", &self.session)
            .finish_non_exhaustive()
    }
}

impl<S: CacheSession, K: EventSink + Send> CacheSession for Tee<S, K> {
    fn access(&mut self, id: SuperblockId) -> AccessResult {
        let result = self.session.access(id);
        self.sink.event(result.event(id));
        result
    }

    fn access_or_insert(
        &mut self,
        req: InsertRequest,
        sink: &mut dyn EventSink,
    ) -> Result<AccessOutcome, CacheError> {
        let copy = &mut self.sink;
        self.session.access_or_insert(req, &mut |ev| {
            copy.event(ev);
            sink.event(ev);
        })
    }

    fn link(&mut self, from: SuperblockId, to: SuperblockId) -> Result<bool, CacheError> {
        self.session.link(from, to)
    }

    fn flush(&mut self, sink: &mut dyn EventSink) -> Option<InsertSummary> {
        let copy = &mut self.sink;
        self.session.flush(&mut |ev| {
            copy.event(ev);
            sink.event(ev);
        })
    }

    fn is_resident(&self, id: SuperblockId) -> bool {
        self.session.is_resident(id)
    }

    fn contains_link(&self, from: SuperblockId, to: SuperblockId) -> bool {
        self.session.contains_link(from, to)
    }

    fn capacity(&self) -> u64 {
        self.session.capacity()
    }

    fn used(&self) -> u64 {
        self.session.used()
    }

    fn resident_count(&self) -> usize {
        self.session.resident_count()
    }

    fn granularity(&self) -> Granularity {
        self.session.granularity()
    }

    fn stats_snapshot(&self) -> CacheStats {
        self.session.stats_snapshot()
    }

    fn link_census(&self) -> (u64, u64) {
        self.session.link_census()
    }
}

/// Checks a session's complete recorded stream against its statistics:
/// every counter the stream carries (hits, cold and capacity misses,
/// insertions, padding, invocations, evicted blocks and bytes, unlink
/// operations and links, free drops) must equal the count or sum of its
/// events. `events` must cover the session's whole life, recorded
/// through [`CacheSession::access_or_insert`] and [`CacheSession::flush`]
/// (a bare `CodeCache::insert_request` bypasses the stream's `Hit`/`Miss`,
/// and an arbiter's resize bypasses it altogether).
///
/// # Panics
///
/// Panics, showing both sets of counters, on any mismatch.
pub fn reconcile(events: &[CacheEvent], stats: &CacheStats) {
    let mut seen = CacheStats::new();
    for &ev in events {
        match ev {
            CacheEvent::Hit { .. } => seen.hits += 1,
            CacheEvent::Miss { cold, .. } => {
                seen.misses += 1;
                seen.cold_misses += u64::from(cold);
                seen.capacity_misses += u64::from(!cold);
            }
            CacheEvent::Inserted { size, .. } => {
                seen.insertions += 1;
                seen.bytes_inserted += u64::from(size);
            }
            CacheEvent::Padding { bytes } => seen.padding_bytes += bytes,
            CacheEvent::EvictionBegin => seen.eviction_invocations += 1,
            CacheEvent::Evicted { size, .. } => {
                seen.blocks_evicted += 1;
                seen.bytes_evicted += u64::from(size);
            }
            CacheEvent::EvictionEnd {
                links_dropped_free, ..
            } => seen.links_dropped_free += links_dropped_free,
            CacheEvent::Unlinked { links, .. } => {
                seen.unlink_operations += 1;
                seen.links_unlinked += u64::from(links);
            }
        }
    }
    // Links are created and high-water marks reached off-stream; every
    // other counter must be exactly what the stream carries.
    let from_stream = CacheStats {
        accesses: seen.hits + seen.misses,
        links_created: stats.links_created,
        inter_unit_links_created: stats.inter_unit_links_created,
        high_water_bytes: stats.high_water_bytes,
        high_water_blocks: stats.high_water_blocks,
        ..seen
    };
    assert_eq!(
        &from_stream, stats,
        "stream (left) and statistics (right) disagree"
    );
}
