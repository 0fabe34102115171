//! Cache organizations — the eviction-policy layer.
//!
//! A [`CacheOrg`] owns the placement of superblocks in the cache's byte
//! space and decides *what to evict* when an insertion needs room. It knows
//! nothing about superblock links; [`crate::CodeCache`] layers the link
//! graph and the derived statistics on top.
//!
//! Eviction decisions are *streamed*: the required
//! [`CacheOrg::insert_events`] writes [`crate::CacheEvent`]s into a
//! caller-supplied [`EventSink`] (usually the cache's reusable scratch
//! buffer), so the hot path performs no per-insert heap allocation.
//! A caller that wants an owned report reassembles the stream with
//! [`crate::InsertReport::from_events`].
//!
//! Provided organizations:
//!
//! | Type | Granularity | Paper reference |
//! |---|---|---|
//! | [`unit_fifo::UnitFifo`] | FLUSH / N-unit FIFO | §4, Figure 5 |
//! | [`fine_fifo::FineFifo`] | per-superblock FIFO | §4.2 (DynamoRIO) |
//! | [`preemptive::PreemptiveFlush`] | full flush on phase change | §2.3 (Dynamo) |
//! | [`lru::LruCache`] | per-superblock LRU (fragmenting baseline) | §3.3 |
//! | [`adaptive::AdaptiveUnits`] | pressure-adaptive unit count | §5.4 future work |
//! | [`affinity::AffinityUnits`] | link-affinity unit placement | §5.4 future work |
//! | [`generational::Generational`] | nursery + tenured regions | §2.2 / paper ref. 15 |

pub mod adaptive;
pub mod affinity;
pub mod fine_fifo;
pub mod generational;
pub mod lru;
pub mod preemptive;
pub mod unit_fifo;

use crate::error::CacheError;
use crate::events::EventSink;
use crate::ids::{Granularity, SuperblockId, UnitId};
use std::fmt;

/// A cache organization: placement plus eviction policy.
///
/// Implementations must be deterministic — identical operation sequences
/// must produce identical event streams — because the workspace's
/// experiments rely on reproducibility. `Send` is a supertrait so caches
/// can be built and driven inside the sweep runner's worker threads;
/// `Sync` so a cache's read-only queries can be shared by reference.
///
/// This trait is object-safe; [`crate::CodeCache`] stores a
/// `Box<dyn CacheOrg>` so user code can plug in custom policies (see the
/// `custom_policy` example at the workspace root).
pub trait CacheOrg: fmt::Debug + Send + Sync {
    /// Total capacity in bytes.
    fn capacity(&self) -> u64;

    /// Bytes currently occupied by resident superblocks (excluding
    /// padding).
    fn used(&self) -> u64;

    /// True if `id` is resident.
    fn contains(&self, id: SuperblockId) -> bool;

    /// The eviction unit currently holding `id`, if resident.
    ///
    /// Two superblocks in the same unit die together on a flush; that is
    /// what makes their links *intra-unit* (removable for free).
    fn unit_of(&self, id: SuperblockId) -> Option<UnitId>;

    /// Inserts `id` with the given byte size, streaming the eviction
    /// decisions into `sink`. This is the primary insertion entry point;
    /// it must emit, in order: an optional [`crate::CacheEvent::Padding`], zero
    /// or more `EvictionBegin / Evicted+ / EvictionEnd` invocations, and
    /// a final [`crate::CacheEvent::Inserted`]. Implementations must not buffer
    /// — events are written as decisions are made, so a reused sink sees
    /// no per-insert allocation.
    ///
    /// `partner` is a *placement hint*: a resident superblock the
    /// newcomer is about to be linked with (the chain source that
    /// triggered the regeneration). Placement-aware organizations
    /// (e.g. [`crate::AffinityUnits`]) co-locate the two to keep the link
    /// intra-unit; others ignore it.
    ///
    /// # Errors
    ///
    /// * [`CacheError::AlreadyResident`] if `id` is resident.
    /// * [`CacheError::ZeroSize`] if `size == 0`.
    /// * [`CacheError::BlockTooLarge`] if `size` exceeds the granule.
    fn insert_events(
        &mut self,
        id: SuperblockId,
        size: u32,
        partner: Option<SuperblockId>,
        sink: &mut dyn EventSink,
    ) -> Result<(), CacheError>;

    /// Number of resident superblocks.
    fn resident_count(&self) -> usize;

    /// Resident superblocks in an implementation-defined deterministic
    /// order.
    fn resident_blocks(&self) -> Vec<SuperblockId> {
        self.resident_entries()
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// Resident superblocks with their byte sizes, in the same
    /// deterministic order as [`CacheOrg::resident_blocks`].
    fn resident_entries(&self) -> Vec<(SuperblockId, u32)>;

    /// The granularity this organization implements.
    fn granularity(&self) -> Granularity;

    /// Evicts everything as a single invocation, streaming into `sink`.
    /// Returns `true` if anything was evicted (an empty cache emits no
    /// events).
    fn flush_events(&mut self, sink: &mut dyn EventSink) -> bool;

    /// Feedback channel: called by [`crate::CodeCache`] after every access
    /// with the hit/miss outcome. Policies that react to runtime behaviour
    /// (preemptive flush, adaptive granularity) override this; the default
    /// is a no-op.
    fn note_access(&mut self, hit: bool) {
        let _ = hit;
    }

    /// Recency feedback: called by [`crate::CodeCache`] when `id` is hit.
    /// Only recency-aware policies (LRU) need to override this.
    fn note_hit(&mut self, id: SuperblockId) {
        let _ = id;
    }
}

/// Test helper: inserts through [`CacheOrg::insert_events`] and
/// reassembles the stream with [`crate::InsertReport::from_events`].
#[cfg(test)]
pub(crate) fn insert_report(
    org: &mut dyn CacheOrg,
    id: SuperblockId,
    size: u32,
    partner: Option<SuperblockId>,
) -> Result<crate::InsertReport, CacheError> {
    let mut buf = crate::EventBuffer::new();
    org.insert_events(id, size, partner, &mut buf)?;
    Ok(crate::InsertReport::from_events(buf.events()))
}
