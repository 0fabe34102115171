//! The eight built-in organizations by name, for the conformance suites
//! that sweep every one of them.

use cce_core::{
    AdaptiveUnits, AffinityUnits, CacheError, CacheOrg, FineFifo, Generational, LruCache,
    PreemptiveFlush, UnitFifo,
};

/// Every built-in organization, by the name [`org`] builds it from.
pub const ORGS: [&str; 8] = [
    "unit_fifo(1)",
    "unit_fifo(8)",
    "fine_fifo",
    "lru",
    "preemptive",
    "adaptive",
    "affinity",
    "generational",
];

/// Builds organization `kind` (one of [`ORGS`]) at `capacity` bytes.
pub fn org(kind: &str, capacity: u64) -> Result<Box<dyn CacheOrg>, CacheError> {
    Ok(match kind {
        "unit_fifo(1)" => Box::new(UnitFifo::new(capacity, 1)?),
        "unit_fifo(8)" => Box::new(UnitFifo::new(capacity, 8)?),
        "fine_fifo" => Box::new(FineFifo::new(capacity)?),
        "lru" => Box::new(LruCache::new(capacity)?),
        "preemptive" => Box::new(PreemptiveFlush::new(capacity)?),
        "adaptive" => Box::new(AdaptiveUnits::new(capacity, 4, 1, 64)?),
        "affinity" => Box::new(AffinityUnits::new(capacity, 4)?),
        "generational" => Box::new(Generational::new(capacity)?),
        other => panic!("unknown organization {other}"),
    })
}
