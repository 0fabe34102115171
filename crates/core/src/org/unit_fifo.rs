//! The unit-partitioned FIFO organization (FLUSH and N-unit FIFO).
//!
//! The cache's byte space is divided into `n` equal units. New superblocks
//! fill the current unit front to back; when an incoming block does not fit
//! in the remaining space, the write head advances to the next unit in
//! round-robin order, flushing that entire unit first if it holds code
//! (one eviction-mechanism invocation). `n == 1` is exactly the paper's
//! FLUSH policy; `n == 2` is Mojo's alternating half-flush; larger `n` is
//! the medium-grained middle ground the paper explores.
//!
//! A superblock never spans units; the skipped tail of a unit is counted as
//! padding (emitted as a [`CacheEvent::Padding`] event).

use crate::error::CacheError;
use crate::events::{CacheEvent, EventSink, EvictionScope};
use crate::ids::{Granularity, SuperblockId, UnitId};
use crate::org::CacheOrg;
use std::collections::HashMap;

#[derive(Debug, Default, Clone)]
struct Unit {
    /// Resident blocks in insertion order.
    blocks: Vec<(SuperblockId, u32)>,
    /// Occupied bytes (excluding padding).
    used: u64,
}

/// FLUSH / N-unit FIFO cache organization. See the module docs.
#[derive(Debug, Clone)]
pub struct UnitFifo {
    unit_capacity: u64,
    units: Vec<Unit>,
    /// Unit currently being filled.
    head: usize,
    /// Superblock → index of the unit holding it.
    resident: HashMap<SuperblockId, usize>,
    used: u64,
    granularity: Granularity,
}

impl UnitFifo {
    /// Creates a cache of `capacity` bytes split into `units` equal units.
    ///
    /// # Errors
    ///
    /// * [`CacheError::ZeroCapacity`] if `capacity == 0`.
    /// * [`CacheError::TooManyUnits`] if `units > capacity` (units would be
    ///   zero bytes) or `units == 0`.
    pub fn new(capacity: u64, units: u32) -> Result<UnitFifo, CacheError> {
        if capacity == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        if units == 0 || u64::from(units) > capacity {
            return Err(CacheError::TooManyUnits { units, capacity });
        }
        let unit_capacity = capacity / u64::from(units);
        let granularity = if units == 1 {
            Granularity::Flush
        } else {
            Granularity::units(units)
        };
        Ok(UnitFifo {
            unit_capacity,
            units: vec![Unit::default(); units as usize],
            head: 0,
            resident: HashMap::new(),
            used: 0,
            granularity,
        })
    }

    /// Creates the FLUSH organization (a single unit).
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::ZeroCapacity`] if `capacity == 0`.
    pub fn flush_policy(capacity: u64) -> Result<UnitFifo, CacheError> {
        UnitFifo::new(capacity, 1)
    }

    /// Byte capacity of each unit.
    #[must_use]
    pub fn unit_capacity(&self) -> u64 {
        self.unit_capacity
    }

    /// Number of units.
    #[must_use]
    pub fn unit_count(&self) -> u32 {
        self.units.len() as u32
    }

    /// Streams the eviction of unit `idx` (if occupied) into `scope`,
    /// clearing the unit in place so its `Vec` allocation is reused.
    fn flush_unit_into(&mut self, idx: usize, scope: &mut EvictionScope<'_>) {
        let unit = &mut self.units[idx];
        for &(id, size) in &unit.blocks {
            self.resident.remove(&id);
            scope.evict(id, size);
        }
        unit.blocks.clear();
        self.used -= unit.used;
        unit.used = 0;
    }
}

impl CacheOrg for UnitFifo {
    fn capacity(&self) -> u64 {
        self.unit_capacity * self.units.len() as u64
    }

    fn used(&self) -> u64 {
        self.used
    }

    fn contains(&self, id: SuperblockId) -> bool {
        self.resident.contains_key(&id)
    }

    fn unit_of(&self, id: SuperblockId) -> Option<UnitId> {
        self.resident.get(&id).map(|&u| UnitId(u as u64))
    }

    fn insert_events(
        &mut self,
        id: SuperblockId,
        size: u32,
        _partner: Option<SuperblockId>,
        sink: &mut dyn EventSink,
    ) -> Result<(), CacheError> {
        if self.resident.contains_key(&id) {
            return Err(CacheError::AlreadyResident(id));
        }
        if size == 0 {
            return Err(CacheError::ZeroSize(id));
        }
        if u64::from(size) > self.unit_capacity {
            return Err(CacheError::BlockTooLarge {
                id,
                size,
                max: self.unit_capacity,
            });
        }
        if self.units[self.head].used + u64::from(size) > self.unit_capacity {
            // Advance to the next unit, flushing it if occupied.
            let padding = self.unit_capacity - self.units[self.head].used;
            if padding > 0 {
                sink.event(CacheEvent::Padding { bytes: padding });
            }
            self.head = (self.head + 1) % self.units.len();
            let mut scope = EvictionScope::new(sink);
            self.flush_unit_into(self.head, &mut scope);
            scope.finish();
        }
        let head = self.head;
        self.units[head].blocks.push((id, size));
        self.units[head].used += u64::from(size);
        self.used += u64::from(size);
        self.resident.insert(id, head);
        sink.event(CacheEvent::Inserted { id, size });
        Ok(())
    }

    fn resident_count(&self) -> usize {
        self.resident.len()
    }

    fn resident_entries(&self) -> Vec<(SuperblockId, u32)> {
        // Deterministic order: units in index order, blocks in insertion
        // order.
        self.units
            .iter()
            .flat_map(|u| u.blocks.iter().copied())
            .collect()
    }

    fn granularity(&self) -> Granularity {
        self.granularity
    }

    fn flush_events(&mut self, sink: &mut dyn EventSink) -> bool {
        let mut scope = EvictionScope::new(sink);
        for i in 0..self.units.len() {
            self.flush_unit_into(i, &mut scope);
        }
        self.head = 0;
        scope.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::insert_report;
    use crate::testutil::conformance;

    #[test]
    fn conformance_flush() {
        conformance(Box::new(UnitFifo::new(1024, 1).unwrap()));
    }

    #[test]
    fn conformance_2_unit() {
        conformance(Box::new(UnitFifo::new(1024, 2).unwrap()));
    }

    #[test]
    fn conformance_8_unit() {
        conformance(Box::new(UnitFifo::new(1024, 8).unwrap()));
    }

    #[test]
    fn constructor_validation() {
        assert_eq!(UnitFifo::new(0, 1).unwrap_err(), CacheError::ZeroCapacity);
        assert!(matches!(
            UnitFifo::new(8, 0).unwrap_err(),
            CacheError::TooManyUnits { .. }
        ));
        assert!(matches!(
            UnitFifo::new(8, 9).unwrap_err(),
            CacheError::TooManyUnits { .. }
        ));
    }

    #[test]
    fn flush_policy_evicts_everything_at_once() {
        let mut c = UnitFifo::flush_policy(100).unwrap();
        for i in 0..4 {
            let r = insert_report(&mut c, SuperblockId(i), 25, None).unwrap();
            assert!(r.evictions.is_empty());
        }
        assert_eq!(c.used(), 100);
        // Next insertion flushes all four.
        let r = insert_report(&mut c, SuperblockId(4), 25, None).unwrap();
        assert_eq!(r.evictions.len(), 1);
        assert_eq!(r.evictions[0].evicted.len(), 4);
        assert_eq!(r.evictions[0].bytes, 100);
        assert_eq!(c.resident_count(), 1);
    }

    #[test]
    fn two_units_alternate_like_mojo() {
        let mut c = UnitFifo::new(200, 2).unwrap();
        // Fill unit 0 (100 bytes).
        insert_report(&mut c, SuperblockId(0), 60, None).unwrap();
        insert_report(&mut c, SuperblockId(1), 40, None).unwrap();
        // Next goes to unit 1 — empty, no eviction.
        let r = insert_report(&mut c, SuperblockId(2), 80, None).unwrap();
        assert!(r.evictions.is_empty());
        assert_eq!(c.unit_of(SuperblockId(2)), Some(UnitId(1)));
        // Unit 1 overflows back into unit 0, flushing blocks 0 and 1.
        let r = insert_report(&mut c, SuperblockId(3), 50, None).unwrap();
        assert_eq!(r.evictions.len(), 1);
        let evicted: Vec<u64> = r.evictions[0].evicted.iter().map(|&(id, _)| id.0).collect();
        assert_eq!(evicted, vec![0, 1]);
        assert_eq!(c.unit_of(SuperblockId(3)), Some(UnitId(0)));
    }

    #[test]
    fn padding_is_reported_when_units_advance() {
        let mut c = UnitFifo::new(200, 2).unwrap();
        insert_report(&mut c, SuperblockId(0), 70, None).unwrap();
        // 30 bytes left in unit 0; a 50-byte block skips them.
        let r = insert_report(&mut c, SuperblockId(1), 50, None).unwrap();
        assert_eq!(r.padding, 30);
    }

    #[test]
    fn block_exactly_unit_sized_fits() {
        let mut c = UnitFifo::new(100, 2).unwrap();
        assert!(insert_report(&mut c, SuperblockId(0), 50, None).is_ok());
        assert!(matches!(
            insert_report(&mut c, SuperblockId(1), 51, None),
            Err(CacheError::BlockTooLarge { max: 50, .. })
        ));
    }

    #[test]
    fn round_robin_is_fifo_over_units() {
        let mut c = UnitFifo::new(300, 3).unwrap();
        // One 100-byte block per unit.
        for i in 0..3 {
            insert_report(&mut c, SuperblockId(i), 100, None).unwrap();
        }
        // Insertions now flush units 0, 1, 2 in order.
        for (i, expect_evicted) in [(3u64, 0u64), (4, 1), (5, 2)] {
            let r = insert_report(&mut c, SuperblockId(i), 100, None).unwrap();
            assert_eq!(r.evictions[0].evicted[0].0, SuperblockId(expect_evicted));
        }
    }

    #[test]
    fn unit_of_tracks_placement() {
        let mut c = UnitFifo::new(100, 2).unwrap();
        insert_report(&mut c, SuperblockId(0), 30, None).unwrap();
        insert_report(&mut c, SuperblockId(1), 30, None).unwrap(); // still unit 0 (60 <= 50? no!)
                                                                   // unit capacity is 50, so sb1 went to unit 1.
        assert_eq!(c.unit_of(SuperblockId(0)), Some(UnitId(0)));
        assert_eq!(c.unit_of(SuperblockId(1)), Some(UnitId(1)));
        assert_eq!(c.unit_of(SuperblockId(99)), None);
    }
}
