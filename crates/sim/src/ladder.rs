//! Single-pass configuration-ladder engine (DESIGN.md §14).
//!
//! The paper's figures are grid sweeps — granularity × capacity ×
//! pressure — and the naive engine replays the full trace once per
//! cell: O(cells × events). This module simulates *every* cell of a
//! granularity/capacity ladder from **one** traversal of the event
//! stream. The key structural facts that make the fusion exact:
//!
//! * Both FIFO organizations ([`cce_core::UnitFifo`],
//!   [`cce_core::FineFifo`]) are deterministic functions of the access
//!   stream alone — no clocks, no randomness — so per-configuration
//!   state can be advanced in lockstep off shared per-superblock data.
//! * A miss triggers at most **one** eviction invocation in either
//!   organization (one round-robin unit flush, or one batched FIFO
//!   pop-run), so per-insert work per configuration is O(victims).
//! * Residency, first-touch ("seen") and link liveness are per-
//!   configuration *bits*; packing 64 configurations into `u64` masks
//!   turns hit classification and link bookkeeping into mask ops that
//!   touch only the configurations that actually miss.
//!
//! Results are **byte-identical** to the per-cell oracle — same
//! [`CacheStats`], same f64 overhead accumulation order, same settled
//! event stream per cell (checked by `tests/ladder_conformance.rs`).
//! [`simulate_ladder`] is the one entry point: its per-cell streams go
//! to ordinary [`EventSink`]s, the interface every
//! [`cce_core::CacheSession`] streams into, so a ladder cell and a naive
//! run are observed the same way. The naive path stays available as
//! [`Engine::Naive`] and remains the reference implementation.

use crate::overhead::OverheadModel;
use crate::simulator::{EventSource, SimConfig, SimError, SimResult};
use cce_core::{CacheError, CacheEvent, CacheStats, EventSink, Granularity, SuperblockId};
use cce_dbt::TraceEvent;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative mixer for the id → dense-index map. The lookup sits
/// on the per-event hot path, keys are trusted in-process superblock
/// ids, and iteration order is never observed — so SipHash's DoS
/// hardening buys nothing and its latency is pure overhead.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 ^= self.0 >> 32;
    }
}

type IdMap<V> = HashMap<SuperblockId, V, BuildHasherDefault<IdHasher>>;

/// Which simulation engine a [`crate::ReplayMatrix`] runs its grid on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One full trace replay per grid cell. The oracle: every other
    /// engine must reproduce its output byte-for-byte.
    #[default]
    Naive,
    /// The single-pass configuration ladder in this module: all cells
    /// of a trace simulated from one traversal of its event stream.
    Ladder,
}

/// One rung of the ladder: a granularity at an exact capacity.
///
/// For `Units(n)` granularities the capacity must be divisible by `n`
/// (the truncation the naive [`cce_core::UnitFifo`] constructor applies
/// silently is rejected here as a [`SimError::Config`], so the caller
/// states the effective capacity explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderCell {
    /// Eviction granularity for this rung.
    pub granularity: Granularity,
    /// Exact cache capacity in bytes for this rung.
    pub capacity: u64,
}

/// Configurations simulated per pass: residency/seen/link-liveness are
/// one bit per configuration in a `u64`. Larger ladders run in batches
/// of 64, re-traversing the source once per batch.
const MAX_LADDER_BATCH: usize = 64;

/// Simulate every `cells` rung in a single pass over `source` (one
/// pass per 64-cell batch). `base` supplies the overhead model and the
/// `chaining`/`charge_unlinks` switches; granularity and capacity come
/// from each rung.
///
/// `sinks` is either empty (unobserved) or holds one [`EventSink`] per
/// rung, in `cells` order; each then receives its rung's settled event
/// stream, byte-identical to what a [`cce_core::CodeCache`] session of
/// that configuration streams from `access_or_insert` under the naive
/// engine. Unobserved runs compile every emission site out.
///
/// Returns one [`SimResult`] per rung, in `cells` order, byte-identical
/// to what the naive engine produces for the same configuration.
///
/// # Errors
///
/// [`SimError::Config`] for an empty ladder, a `sinks` slice that is
/// neither empty nor one per rung, or a `Units(n)` rung whose capacity
/// is not divisible by `n`; [`SimError::Cache`] for rung geometry the
/// organizations themselves reject (zero capacity, more units than
/// bytes); [`SimError::EmptyTrace`], [`SimError::UnknownSuperblock`]
/// and [`SimError::Ingest`] exactly as the naive engine reports them.
pub fn simulate_ladder<T: EventSource + ?Sized>(
    source: &T,
    cells: &[LadderCell],
    base: &SimConfig,
    sinks: &mut [&mut dyn EventSink],
) -> Result<Vec<SimResult>, SimError> {
    if cells.is_empty() {
        return Err(SimError::Config("ladder needs at least one configuration"));
    }
    if !sinks.is_empty() && sinks.len() != cells.len() {
        return Err(SimError::Config(
            "ladder needs one event sink per configuration, or none",
        ));
    }
    for cell in cells {
        if cell.capacity == 0 {
            return Err(SimError::Cache(CacheError::ZeroCapacity));
        }
        if let Some(n) = cell.granularity.unit_count() {
            let n = u64::from(n);
            if n > cell.capacity {
                return Err(SimError::Cache(CacheError::TooManyUnits {
                    units: u32::try_from(n).unwrap_or(u32::MAX),
                    capacity: cell.capacity,
                }));
            }
            if cell.capacity % n != 0 {
                return Err(SimError::Config(
                    "ladder capacity must be divisible by the granularity's unit count",
                ));
            }
        }
    }
    if source.event_count() == 0 {
        return Err(SimError::EmptyTrace);
    }
    let mut results = Vec::with_capacity(cells.len());
    let mut sink_batches = sinks.chunks_mut(MAX_LADDER_BATCH);
    for batch in cells.chunks(MAX_LADDER_BATCH) {
        results.extend(match sink_batches.next() {
            Some(batch_sinks) => run_batch::<T, true>(source, batch, base, batch_sinks)?,
            None => run_batch::<T, false>(source, batch, base, &mut [])?,
        });
    }
    Ok(results)
}

/// A directed chaining edge in the shared link table. `live` holds one
/// bit per configuration in the current batch: the pair is a live link
/// in that configuration's cache.
struct Pair {
    from: u32,
    to: u32,
    live: u64,
}

/// Per-batch state shared by every configuration: the superblock
/// registry (dense indices), per-superblock residency/first-touch bit
/// masks, and the link table with per-endpoint adjacency.
struct Shared {
    ids: Vec<SuperblockId>,
    sizes: Vec<u32>,
    /// Bit c set: superblock resident in configuration c's cache.
    resident: Vec<u64>,
    /// Bit c set: configuration c has inserted this superblock before
    /// (drives the cold/capacity miss split).
    seen: Vec<u64>,
    pairs: Vec<Pair>,
    /// Pair indices with this superblock as `to` / as `from`.
    in_pairs: Vec<Vec<u32>>,
    out_pairs: Vec<Vec<u32>>,
    /// Generation stamp marking the victims of the eviction invocation
    /// in flight, for the survivor/co-victim unlink split.
    dying_stamp: Vec<u64>,
    stamp: u64,
}

/// One round-robin unit of a `Units(n)` configuration.
#[derive(Default)]
struct LadderUnit {
    blocks: Vec<u32>,
    used: u64,
}

/// Organization-specific state of one ladder rung.
enum OrgState {
    /// Mirror of [`cce_core::UnitFifo`]: `n` equal units filled
    /// round-robin, the next unit flushed whole when the head fills.
    Unit {
        unit_capacity: u64,
        head: usize,
        units: Vec<LadderUnit>,
        /// Unit index each superblock was inserted into (valid while
        /// resident; drives the intra/inter link split).
        unit_of: Vec<u32>,
    },
    /// Mirror of [`cce_core::FineFifo`]: one insertion-order queue,
    /// oldest blocks popped until the newcomer fits.
    Fine {
        queue: VecDeque<u32>,
        /// Victim buffer reused across invocations.
        scratch: Vec<u32>,
    },
}

/// Full state of one ladder rung: its bit lane, geometry, organization
/// and the per-cell accumulators a [`SimResult`] is assembled from.
struct ConfigState {
    bit: u64,
    capacity: u64,
    /// Largest insertable block (unit capacity for `Units`, whole
    /// capacity for fine FIFO) — beyond it the block is uncacheable.
    max_insert: u64,
    used: u64,
    resident_blocks: u64,
    org: OrgState,
    stats: CacheStats,
    miss_overhead: f64,
    eviction_overhead: f64,
    unlink_overhead: f64,
    uncacheable: u64,
    /// Running link counts maintained eagerly so the periodic census
    /// is O(1) per configuration instead of a graph walk.
    live_intra: u64,
    live_inter: u64,
    census_intra: u64,
    census_inter: u64,
    label: String,
}

impl ConfigState {
    fn new(lane: usize, cell: &LadderCell, blocks: usize) -> ConfigState {
        let (org, max_insert) = match cell.granularity.unit_count() {
            Some(n) => {
                let unit_capacity = cell.capacity / u64::from(n);
                (
                    OrgState::Unit {
                        unit_capacity,
                        head: 0,
                        units: (0..n).map(|_| LadderUnit::default()).collect(),
                        unit_of: vec![0; blocks],
                    },
                    unit_capacity,
                )
            }
            None => (
                OrgState::Fine {
                    queue: VecDeque::new(),
                    scratch: Vec::new(),
                },
                cell.capacity,
            ),
        };
        ConfigState {
            bit: 1u64 << lane,
            capacity: cell.capacity,
            max_insert,
            used: 0,
            resident_blocks: 0,
            org,
            stats: CacheStats::new(),
            miss_overhead: 0.0,
            eviction_overhead: 0.0,
            unlink_overhead: 0.0,
            uncacheable: 0,
            live_intra: 0,
            live_inter: 0,
            census_intra: 0,
            census_inter: 0,
            label: cell.granularity.label(),
        }
    }

    fn unit_of_slice(&self) -> Option<&[u32]> {
        match &self.org {
            OrgState::Unit { unit_of, .. } => Some(unit_of),
            OrgState::Fine { .. } => None,
        }
    }
}

/// Same unit-locality split [`cce_core::CodeCache`] applies: self-links
/// are intra, fine FIFO puts every block in its own unit, unit FIFO
/// compares unit indices.
fn pair_is_intra(from: u32, to: u32, unit_of: Option<&[u32]>) -> bool {
    from == to || unit_of.is_some_and(|u| u[from as usize] == u[to as usize])
}

/// Simulates one batch of at most 64 rungs. With `OBSERVED`, `sinks`
/// holds one sink per rung of the batch; without it, `sinks` is empty
/// and every emission site is compiled out.
fn run_batch<T, const OBSERVED: bool>(
    source: &T,
    cells: &[LadderCell],
    base: &SimConfig,
    sinks: &mut [&mut dyn EventSink],
) -> Result<Vec<SimResult>, SimError>
where
    T: EventSource + ?Sized,
{
    let registry = source.registry();
    let event_count = source.event_count();
    let blocks = registry.len();
    // Dense indices; on duplicate ids the later entry wins, matching
    // the naive engine's size-map insertion.
    let mut id_to_idx: IdMap<u32> = IdMap::with_capacity_and_hasher(blocks, Default::default());
    let mut ids = Vec::with_capacity(blocks);
    let mut sizes = Vec::with_capacity(blocks);
    for info in registry {
        id_to_idx.insert(info.id, u32::try_from(ids.len()).unwrap_or(u32::MAX));
        ids.push(info.id);
        sizes.push(info.size);
    }
    let mut sh = Shared {
        ids,
        sizes,
        resident: vec![0; blocks],
        seen: vec![0; blocks],
        pairs: Vec::new(),
        in_pairs: vec![Vec::new(); blocks],
        out_pairs: vec![Vec::new(); blocks],
        dying_stamp: vec![0; blocks],
        stamp: 0,
    };
    let mut configs: Vec<ConfigState> = cells
        .iter()
        .enumerate()
        .map(|(lane, cell)| ConfigState::new(lane, cell, blocks))
        .collect();
    let full: u64 = if cells.len() == MAX_LADDER_BATCH {
        u64::MAX
    } else {
        (1u64 << cells.len()) - 1
    };
    let census_every = (usize::try_from(event_count).unwrap_or(usize::MAX) / 64).max(1);
    let model = base.overhead;
    let mut event_idx: u64 = 0;

    for chunk in source.event_chunks() {
        for event in chunk {
            let TraceEvent::Access { id, direct_from } = *event;
            let Some(&block) = id_to_idx.get(&id) else {
                return Err(SimError::UnknownSuperblock(id));
            };
            let b = block as usize;
            let size = sh.sizes[b];
            let res_mask = sh.resident[b];
            if OBSERVED {
                let mut hits = res_mask & full;
                while hits != 0 {
                    let lane = hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    sinks[lane].event(CacheEvent::Hit { id });
                }
            }
            let mut misses = full & !res_mask;
            while misses != 0 {
                let lane = misses.trailing_zeros() as usize;
                misses &= misses - 1;
                let cfg = &mut configs[lane];
                let cold = sh.seen[b] & cfg.bit == 0;
                cfg.stats.misses += 1;
                if cold {
                    cfg.stats.cold_misses += 1;
                } else {
                    cfg.stats.capacity_misses += 1;
                }
                if OBSERVED {
                    sinks[lane].event(CacheEvent::Miss { id, cold });
                }
                if size == 0 {
                    return Err(SimError::Cache(CacheError::ZeroSize(id)));
                }
                if u64::from(size) > cfg.max_insert {
                    // Uncacheable in this rung: the miss stands, the
                    // regeneration is charged, nothing is inserted
                    // (and first-touch is not recorded — every future
                    // miss on it stays cold, exactly as in the oracle).
                    cfg.miss_overhead += model.miss_cost(u64::from(size));
                    cfg.uncacheable += 1;
                } else {
                    miss_insert::<OBSERVED>(
                        cfg,
                        &mut sh,
                        b,
                        size,
                        &model,
                        base.charge_unlinks,
                        sinks,
                        lane,
                    );
                }
            }
            if base.chaining {
                if let Some(from) = direct_from {
                    if let Some(&from_block) = id_to_idx.get(&from) {
                        let both = sh.resident[from_block as usize] & sh.resident[b] & full;
                        if both != 0 {
                            link_configs(&mut sh, &mut configs, from_block, block, both);
                        }
                    }
                }
            }
            let idx = usize::try_from(event_idx).unwrap_or(usize::MAX);
            if idx % census_every == census_every - 1 {
                for cfg in &mut configs {
                    cfg.census_intra += cfg.live_intra;
                    cfg.census_inter += cfg.live_inter;
                }
            }
            event_idx += 1;
        }
    }
    if event_idx != event_count {
        return Err(SimError::Ingest(format!(
            "event stream delivered {event_idx} events but promised {event_count}"
        )));
    }
    let name = source.source_name();
    Ok(configs
        .into_iter()
        .map(|cfg| {
            let mut stats = cfg.stats;
            stats.accesses = event_count;
            // Every access is exactly one hit or one miss.
            stats.hits = event_count - stats.misses;
            SimResult {
                name: name.to_owned(),
                granularity_label: cfg.label,
                capacity: cfg.capacity,
                stats,
                miss_overhead: cfg.miss_overhead,
                eviction_overhead: cfg.eviction_overhead,
                unlink_overhead: cfg.unlink_overhead,
                uncacheable: cfg.uncacheable,
                census_intra_links: cfg.census_intra,
                census_inter_links: cfg.census_inter,
            }
        })
        .collect())
}

/// Insert superblock `b` into one rung after a miss, evicting exactly
/// as that rung's organization would, and charge the three overhead
/// models in the oracle's order (miss, eviction, unlink — the latter
/// two at zero when nothing was evicted, preserving f64 identity).
#[allow(clippy::too_many_arguments)]
fn miss_insert<const OBSERVED: bool>(
    cfg: &mut ConfigState,
    sh: &mut Shared,
    b: usize,
    size: u32,
    model: &OverheadModel,
    charge_unlinks: bool,
    sinks: &mut [&mut dyn EventSink],
    lane: usize,
) {
    let ConfigState {
        bit,
        capacity,
        org,
        stats,
        used,
        resident_blocks,
        live_intra,
        live_inter,
        miss_overhead,
        eviction_overhead,
        unlink_overhead,
        ..
    } = cfg;
    let bit = *bit;
    let sz = u64::from(size);
    // (invocations, bytes evicted, unlink operations, links unlinked)
    let mut charge = (0u64, 0u64, 0u64, 0u64);
    match org {
        OrgState::Unit {
            unit_capacity,
            head,
            units,
            unit_of,
        } => {
            if units[*head].used + sz > *unit_capacity {
                let padding = *unit_capacity - units[*head].used;
                if padding > 0 {
                    stats.padding_bytes += padding;
                    if OBSERVED {
                        sinks[lane].event(CacheEvent::Padding { bytes: padding });
                    }
                }
                *head = (*head + 1) % units.len();
                if !units[*head].blocks.is_empty() {
                    let mut victims = std::mem::take(&mut units[*head].blocks);
                    *used -= units[*head].used;
                    units[*head].used = 0;
                    *resident_blocks -= victims.len() as u64;
                    let inv = process_invocation::<OBSERVED>(
                        sh,
                        &victims,
                        bit,
                        Some(unit_of),
                        stats,
                        live_intra,
                        live_inter,
                        sinks,
                        lane,
                    );
                    charge = (1, inv.0, inv.1, inv.2);
                    victims.clear();
                    units[*head].blocks = victims;
                }
            }
            let h = *head;
            units[h].blocks.push(b as u32);
            units[h].used += sz;
            unit_of[b] = u32::try_from(h).unwrap_or(u32::MAX);
        }
        OrgState::Fine { queue, scratch } => {
            if *used + sz > *capacity {
                let mut victims = std::mem::take(scratch);
                while *used + sz > *capacity {
                    // The queue cannot run dry while `used > 0`; the
                    // `else` arm keeps this loop panic-free regardless.
                    let Some(victim) = queue.pop_front() else {
                        break;
                    };
                    *used -= u64::from(sh.sizes[victim as usize]);
                    victims.push(victim);
                }
                *resident_blocks -= victims.len() as u64;
                let inv = process_invocation::<OBSERVED>(
                    sh, &victims, bit, None, stats, live_intra, live_inter, sinks, lane,
                );
                charge = (1, inv.0, inv.1, inv.2);
                victims.clear();
                *scratch = victims;
            }
            queue.push_back(b as u32);
        }
    }
    *used += sz;
    *resident_blocks += 1;
    sh.resident[b] |= bit;
    sh.seen[b] |= bit;
    stats.insertions += 1;
    stats.bytes_inserted += sz;
    stats.high_water_bytes = stats.high_water_bytes.max(*used);
    stats.high_water_blocks = stats.high_water_blocks.max(*resident_blocks);
    if OBSERVED {
        sinks[lane].event(CacheEvent::Inserted {
            id: sh.ids[b],
            size,
        });
    }
    *miss_overhead += model.miss_cost(sz);
    *eviction_overhead += model.eviction_cost_total(charge.0, charge.1);
    if charge_unlinks {
        *unlink_overhead += model.unlink_cost_total(charge.2, charge.3);
    }
}

/// Process one eviction invocation for one rung: clear the victims'
/// residency and live-link bits, split removed links into explicit
/// unlink operations (a surviving predecessor must be unlinked) versus
/// links dropped for free (both endpoints dying), and emit the settled
/// event run. Returns (bytes evicted, unlink operations, links
/// unlinked) for the overhead charge.
#[allow(clippy::too_many_arguments)]
fn process_invocation<const OBSERVED: bool>(
    sh: &mut Shared,
    victims: &[u32],
    bit: u64,
    unit_of: Option<&[u32]>,
    stats: &mut CacheStats,
    live_intra: &mut u64,
    live_inter: &mut u64,
    sinks: &mut [&mut dyn EventSink],
    lane: usize,
) -> (u64, u64, u64) {
    let Shared {
        ids,
        sizes,
        resident,
        pairs,
        in_pairs,
        out_pairs,
        dying_stamp,
        stamp,
        ..
    } = sh;
    *stamp += 1;
    let now = *stamp;
    let mut bytes = 0u64;
    for &victim in victims {
        dying_stamp[victim as usize] = now;
        bytes += u64::from(sizes[victim as usize]);
    }
    stats.eviction_invocations += 1;
    stats.blocks_evicted += victims.len() as u64;
    stats.bytes_evicted += bytes;
    if OBSERVED {
        sinks[lane].event(CacheEvent::EvictionBegin);
    }
    let mut removed = 0u64;
    let mut unlinked = 0u64;
    let mut unlink_ops = 0u64;
    for &victim in victims {
        let v = victim as usize;
        // Incoming edges from a non-dying source are the ones the
        // oracle charges an explicit unlink for; everything else dies
        // with the invocation for free.
        let mut survivors = 0u32;
        for &p in &in_pairs[v] {
            let pair = &mut pairs[p as usize];
            if pair.live & bit != 0 {
                pair.live &= !bit;
                removed += 1;
                if pair_is_intra(pair.from, pair.to, unit_of) {
                    *live_intra -= 1;
                } else {
                    *live_inter -= 1;
                }
                if dying_stamp[pair.from as usize] != now {
                    survivors += 1;
                }
            }
        }
        for &p in &out_pairs[v] {
            let pair = &mut pairs[p as usize];
            if pair.live & bit != 0 {
                pair.live &= !bit;
                removed += 1;
                if pair_is_intra(pair.from, pair.to, unit_of) {
                    *live_intra -= 1;
                } else {
                    *live_inter -= 1;
                }
            }
        }
        resident[v] &= !bit;
        if OBSERVED {
            sinks[lane].event(CacheEvent::Evicted {
                id: ids[v],
                size: sizes[v],
            });
        }
        if survivors > 0 {
            stats.unlink_operations += 1;
            stats.links_unlinked += u64::from(survivors);
            unlink_ops += 1;
            unlinked += u64::from(survivors);
            if OBSERVED {
                sinks[lane].event(CacheEvent::Unlinked {
                    id: ids[v],
                    links: survivors,
                });
            }
        }
    }
    let dropped = removed - unlinked;
    stats.links_dropped_free += dropped;
    if OBSERVED {
        sinks[lane].event(CacheEvent::EvictionEnd {
            bytes,
            links_dropped_free: dropped,
        });
    }
    (bytes, unlink_ops, unlinked)
}

/// Record a chainable transition `from → to` observed while both
/// endpoints are resident in the configurations of `both`: create the
/// link in every such configuration where it is not already live,
/// with the oracle's intra/inter-unit classification.
fn link_configs(sh: &mut Shared, configs: &mut [ConfigState], from: u32, to: u32, both: u64) {
    // A block's successor set is bounded by its exit-stub count, so a
    // linear probe of its out-edges beats a hash lookup on this path.
    let pair_idx = match sh.out_pairs[from as usize]
        .iter()
        .find(|&&p| sh.pairs[p as usize].to == to)
    {
        Some(&p) => p as usize,
        None => {
            let p = u32::try_from(sh.pairs.len()).unwrap_or(u32::MAX);
            sh.pairs.push(Pair { from, to, live: 0 });
            sh.in_pairs[to as usize].push(p);
            sh.out_pairs[from as usize].push(p);
            p as usize
        }
    };
    let mut fresh = both & !sh.pairs[pair_idx].live;
    if fresh == 0 {
        return;
    }
    sh.pairs[pair_idx].live |= fresh;
    while fresh != 0 {
        let lane = fresh.trailing_zeros() as usize;
        fresh &= fresh - 1;
        let cfg = &mut configs[lane];
        let intra = pair_is_intra(from, to, cfg.unit_of_slice());
        cfg.stats.links_created += 1;
        if intra {
            cfg.live_intra += 1;
        } else {
            cfg.stats.inter_unit_links_created += 1;
            cfg.live_inter += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Replay;
    use cce_workloads::catalog;

    fn trace() -> cce_dbt::TraceLog {
        catalog::by_name("gzip").unwrap().trace(0.05, 7)
    }

    /// The per-cell oracle for one rung via the public Replay front
    /// door (capacity pre-truncated so the builders agree exactly).
    fn oracle(trace: &cce_dbt::TraceLog, cell: LadderCell, base: &SimConfig) -> SimResult {
        Replay::new(trace)
            .config(base)
            .granularity(cell.granularity)
            .capacity(cell.capacity)
            .run()
            .unwrap()
            .into_solo()
    }

    fn ladder_cells(max_cache: u64) -> Vec<LadderCell> {
        let mut cells = Vec::new();
        for granularity in [
            Granularity::Flush,
            Granularity::units(2),
            Granularity::units(8),
            Granularity::Superblock,
        ] {
            for pressure in [2u64, 6, 10] {
                let capacity = (max_cache / pressure).max(4096);
                let capacity = match granularity.unit_count() {
                    Some(n) => (capacity / u64::from(n)) * u64::from(n),
                    None => capacity,
                };
                cells.push(LadderCell {
                    granularity,
                    capacity,
                });
            }
        }
        cells
    }

    #[test]
    fn ladder_matches_oracle_cell_by_cell() {
        let trace = trace();
        let base = SimConfig::default();
        let cells = ladder_cells(trace.max_cache_bytes());
        let results = simulate_ladder(&trace, &cells, &base, &mut []).unwrap();
        assert_eq!(results.len(), cells.len());
        for (cell, got) in cells.iter().zip(&results) {
            let want = oracle(&trace, *cell, &base);
            assert_eq!(
                got,
                &want,
                "{} @ {}",
                cell.granularity.label(),
                cell.capacity
            );
        }
    }

    #[test]
    fn ladder_matches_oracle_with_switches_off() {
        let trace = trace();
        let base = SimConfig {
            chaining: false,
            charge_unlinks: false,
            ..SimConfig::default()
        };
        let cells = ladder_cells(trace.max_cache_bytes());
        let results = simulate_ladder(&trace, &cells, &base, &mut []).unwrap();
        for (cell, got) in cells.iter().zip(&results) {
            assert_eq!(got, &oracle(&trace, *cell, &base));
        }
    }

    #[test]
    fn batches_beyond_sixty_four_cells_match_a_single_batch() {
        let trace = catalog::by_name("mcf").unwrap().trace(0.05, 3);
        let base = SimConfig::default();
        // 72 rungs: the 12-cell ladder tiled six times; batch 2 must
        // reproduce batch 1 exactly (each batch re-reads the source).
        let cells: Vec<LadderCell> = (0..6)
            .flat_map(|_| ladder_cells(trace.max_cache_bytes()))
            .collect();
        assert!(cells.len() > MAX_LADDER_BATCH);
        let results = simulate_ladder(&trace, &cells, &base, &mut []).unwrap();
        for (a, b) in results.iter().zip(results.iter().skip(12)) {
            assert_eq!(a, b);
        }
        // Spot-check one rung in each batch against the oracle.
        assert_eq!(results[1], oracle(&trace, cells[1], &base));
        assert_eq!(results[65], oracle(&trace, cells[65], &base));
    }

    #[test]
    fn empty_ladder_is_a_config_error() {
        let trace = trace();
        let err = simulate_ladder(&trace, &[], &SimConfig::default(), &mut []).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err:?}");
    }

    #[test]
    fn indivisible_capacity_is_a_config_error_not_a_panic() {
        let trace = trace();
        let cells = [LadderCell {
            granularity: Granularity::units(3),
            capacity: 1_000_001,
        }];
        let err = simulate_ladder(&trace, &cells, &SimConfig::default(), &mut []).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err:?}");
    }

    #[test]
    fn degenerate_geometry_errors_match_the_organizations() {
        let trace = trace();
        let zero = [LadderCell {
            granularity: Granularity::Flush,
            capacity: 0,
        }];
        assert_eq!(
            simulate_ladder(&trace, &zero, &SimConfig::default(), &mut []).unwrap_err(),
            SimError::Cache(CacheError::ZeroCapacity)
        );
        let crowded = [LadderCell {
            granularity: Granularity::units(64),
            capacity: 32,
        }];
        assert!(matches!(
            simulate_ladder(&trace, &crowded, &SimConfig::default(), &mut []).unwrap_err(),
            SimError::Cache(CacheError::TooManyUnits { .. })
        ));
    }

    #[test]
    fn empty_trace_is_reported_like_the_naive_engine() {
        let empty = cce_dbt::TraceLog::new("empty");
        let cells = [LadderCell {
            granularity: Granularity::Superblock,
            capacity: 4096,
        }];
        assert_eq!(
            simulate_ladder(&empty, &cells, &SimConfig::default(), &mut []).unwrap_err(),
            SimError::EmptyTrace
        );
    }
}
