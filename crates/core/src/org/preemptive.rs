//! Dynamo's preemptive-flush policy (paper §2.3).
//!
//! Dynamo flushed its entire code cache when it detected a *program phase
//! change* — a burst of new superblock formation — rather than waiting for
//! the cache to fill. The intuition: at a phase boundary the cached
//! working set is dead weight, so evicting it early is cheap, and doing so
//! pre-empts a string of capacity evictions in the middle of the new
//! phase.
//!
//! Phase detection here follows Bala et al.: a sliding window over recent
//! lookups; when the miss fraction in the window exceeds a threshold while
//! the cache is substantially full, the next insertion flushes everything.

use crate::error::CacheError;
use crate::events::EventSink;
use crate::ids::{Granularity, SuperblockId, UnitId};
use crate::org::unit_fifo::UnitFifo;
use crate::org::CacheOrg;
use std::collections::VecDeque;

/// Full-flush organization with phase-change pre-emption. See module docs.
#[derive(Debug)]
pub struct PreemptiveFlush {
    inner: UnitFifo,
    window: VecDeque<bool>,
    window_len: usize,
    misses_in_window: usize,
    miss_threshold: f64,
    min_fill: f64,
    preemptive_flushes: u64,
    flush_pending: bool,
}

impl PreemptiveFlush {
    /// Default sliding-window length (lookups).
    pub const DEFAULT_WINDOW: usize = 128;
    /// Default miss fraction that signals a phase change.
    pub const DEFAULT_THRESHOLD: f64 = 0.5;
    /// Default minimum cache fill fraction before pre-emption engages.
    pub const DEFAULT_MIN_FILL: f64 = 0.5;

    /// Creates a preemptive-flush cache of `capacity` bytes with default
    /// detector parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] if `capacity == 0`.
    pub fn new(capacity: u64) -> Result<PreemptiveFlush, CacheError> {
        PreemptiveFlush::with_detector(
            capacity,
            Self::DEFAULT_WINDOW,
            Self::DEFAULT_THRESHOLD,
            Self::DEFAULT_MIN_FILL,
        )
    }

    /// Creates a preemptive-flush cache with explicit detector parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] if `capacity == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` or the fractions are outside `0.0..=1.0`.
    pub fn with_detector(
        capacity: u64,
        window: usize,
        miss_threshold: f64,
        min_fill: f64,
    ) -> Result<PreemptiveFlush, CacheError> {
        assert!(window > 0, "window must be nonzero");
        assert!((0.0..=1.0).contains(&miss_threshold));
        assert!((0.0..=1.0).contains(&min_fill));
        Ok(PreemptiveFlush {
            inner: UnitFifo::new(capacity, 1)?,
            window: VecDeque::with_capacity(window),
            window_len: window,
            misses_in_window: 0,
            miss_threshold,
            min_fill,
            preemptive_flushes: 0,
            flush_pending: false,
        })
    }

    /// Number of flushes triggered by phase detection (as opposed to the
    /// cache simply filling).
    #[must_use]
    pub fn preemptive_flushes(&self) -> u64 {
        self.preemptive_flushes
    }

    fn phase_change_detected(&self) -> bool {
        self.window.len() == self.window_len
            && (self.misses_in_window as f64 / self.window_len as f64) >= self.miss_threshold
            && (self.inner.used() as f64) >= self.min_fill * self.inner.capacity() as f64
    }
}

impl CacheOrg for PreemptiveFlush {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn used(&self) -> u64 {
        self.inner.used()
    }

    fn contains(&self, id: SuperblockId) -> bool {
        self.inner.contains(id)
    }

    fn unit_of(&self, id: SuperblockId) -> Option<UnitId> {
        self.inner.unit_of(id)
    }

    fn insert_events(
        &mut self,
        id: SuperblockId,
        size: u32,
        partner: Option<SuperblockId>,
        sink: &mut dyn EventSink,
    ) -> Result<(), CacheError> {
        if self.inner.contains(id) {
            return Err(CacheError::AlreadyResident(id));
        }
        // Validate before acting on a pending flush so a rejected insert
        // emits no events (the inner cache is a single full-size unit, so
        // its limits are known here).
        if size == 0 {
            return Err(CacheError::ZeroSize(id));
        }
        if u64::from(size) > self.inner.unit_capacity() {
            return Err(CacheError::BlockTooLarge {
                id,
                size,
                max: self.inner.unit_capacity(),
            });
        }
        if self.flush_pending {
            self.flush_pending = false;
            if self.inner.flush_events(sink) {
                self.preemptive_flushes += 1;
            }
            self.inner.insert_events(id, size, partner, sink)?;
            // The flushed window no longer describes the (empty) cache.
            self.window.clear();
            self.misses_in_window = 0;
            return Ok(());
        }
        self.inner.insert_events(id, size, partner, sink)
    }

    fn resident_count(&self) -> usize {
        self.inner.resident_count()
    }

    fn resident_entries(&self) -> Vec<(SuperblockId, u32)> {
        self.inner.resident_entries()
    }

    fn granularity(&self) -> Granularity {
        Granularity::Flush
    }

    fn flush_events(&mut self, sink: &mut dyn EventSink) -> bool {
        self.inner.flush_events(sink)
    }

    fn note_access(&mut self, hit: bool) {
        if self.window.len() == self.window_len {
            if let Some(old) = self.window.pop_front() {
                if !old {
                    self.misses_in_window -= 1;
                }
            }
        }
        self.window.push_back(hit);
        if !hit {
            self.misses_in_window += 1;
        }
        if self.phase_change_detected() {
            self.flush_pending = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::insert_report;
    use crate::testutil::conformance;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    #[test]
    fn conformance_preemptive() {
        conformance(Box::new(PreemptiveFlush::new(1024).unwrap()));
    }

    #[test]
    fn behaves_like_flush_without_phase_changes() {
        let mut c = PreemptiveFlush::new(100).unwrap();
        for i in 0..4 {
            insert_report(&mut c, sb(i), 25, None).unwrap();
        }
        let r = insert_report(&mut c, sb(4), 25, None).unwrap();
        assert_eq!(r.evictions.len(), 1);
        assert_eq!(r.evictions[0].evicted.len(), 4);
        assert_eq!(c.preemptive_flushes(), 0);
    }

    #[test]
    fn phase_change_triggers_early_flush() {
        let mut c = PreemptiveFlush::with_detector(1000, 8, 0.5, 0.5).unwrap();
        // Fill to 60% with 6 blocks.
        for i in 0..6 {
            insert_report(&mut c, sb(i), 100, None).unwrap();
        }
        // A burst of misses (new phase): 8 misses in a window of 8.
        for _ in 0..8 {
            c.note_access(false);
        }
        // Next insertion flushes preemptively even though 400 bytes remain.
        let r = insert_report(&mut c, sb(100), 100, None).unwrap();
        assert_eq!(c.preemptive_flushes(), 1);
        assert_eq!(r.evictions.len(), 1);
        assert_eq!(r.evictions[0].evicted.len(), 6);
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn no_preemption_when_cache_nearly_empty() {
        let mut c = PreemptiveFlush::with_detector(1000, 8, 0.5, 0.5).unwrap();
        insert_report(&mut c, sb(0), 100, None).unwrap(); // 10% full
        for _ in 0..8 {
            c.note_access(false);
        }
        let r = insert_report(&mut c, sb(1), 100, None).unwrap();
        assert_eq!(c.preemptive_flushes(), 0);
        assert!(r.evictions.is_empty());
    }

    #[test]
    fn hits_decay_the_detector() {
        let mut c = PreemptiveFlush::with_detector(1000, 4, 0.75, 0.1).unwrap();
        insert_report(&mut c, sb(0), 200, None).unwrap();
        // Window: miss, miss, hit, hit → fraction 0.5 < 0.75.
        c.note_access(false);
        c.note_access(false);
        c.note_access(true);
        c.note_access(true);
        let r = insert_report(&mut c, sb(1), 100, None).unwrap();
        assert!(r.evictions.is_empty());
        assert_eq!(c.preemptive_flushes(), 0);
    }
}
