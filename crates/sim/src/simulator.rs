//! Trace-driven code-cache simulation.
//!
//! The simulator replays a [`TraceLog`] — from the real DBT engine or
//! from the statistical workload models — against a fresh cache at one
//! (granularity, capacity) point, charging the [`OverheadModel`] for every
//! miss, eviction invocation and unlink operation. This is the paper's
//! code-cache simulator (§4.1) with the overhead penalties of §4.4/§5.3
//! built in. Callers configure and launch a replay through the
//! [`crate::replay::Replay`] builder; this module holds the engine it
//! drives.
//!
//! Replay is **chunk-oriented**: the core loop ([`SimDriver`]) consumes
//! the event stream one slice at a time, so the same code path serves an
//! in-memory [`TraceLog`] (one big chunk), a decoded-once [`SharedTrace`]
//! shared across sweep cells, a streaming [`cce_dbt::TraceReader`] whose
//! decoder thread overlaps file I/O with the simulation (DESIGN.md §11),
//! and the serve-mode session loop that applies framed events as they
//! arrive off the wire (DESIGN.md §13).
//! The periodic link-graph census is placed by *total* event count —
//! carried in the binary header — so every ingest path produces
//! bit-identical [`SimResult`]s at any chunk size.

use crate::overhead::OverheadModel;
use cce_core::{CacheError, CacheSession, Granularity, InsertRequest, SuperblockId};
use cce_dbt::{SharedTrace, SuperblockInfo, TraceEvent, TraceLog};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Simulator configuration for one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Eviction granularity of the simulated cache.
    pub granularity: Granularity,
    /// Capacity in bytes (the paper uses `maxCache / pressure`).
    pub capacity: u64,
    /// Cost models to charge.
    pub overhead: OverheadModel,
    /// Whether superblock chaining is simulated (links form on direct
    /// transitions when both endpoints are resident).
    pub chaining: bool,
    /// Whether unlink penalties (Eq. 4) are charged — §4.4 runs without
    /// them (Figures 10–11), §5.3 with them (Figures 14–15).
    pub charge_unlinks: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            granularity: Granularity::Superblock,
            capacity: 1 << 20,
            overhead: OverheadModel::cgo2004(),
            chaining: true,
            charge_unlinks: true,
        }
    }
}

/// Errors from a replay or serve run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cache geometry was invalid.
    Cache(CacheError),
    /// The requested run was contradictory before any events flowed
    /// (zero pressure, a custom session combined with tenants, …).
    Config(&'static str),
    /// The trace references a superblock missing from its registry.
    UnknownSuperblock(SuperblockId),
    /// The trace has no events.
    EmptyTrace,
    /// A streaming event source failed mid-replay (I/O, corruption, or
    /// an event count that contradicts its header).
    Ingest(String),
    /// A sweep worker thread died before reporting its cells (it
    /// panicked, or a claimed slot was never filled). The payload is
    /// the panic message when one could be recovered.
    Worker(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Cache(e) => write!(f, "cache error: {e}"),
            SimError::Config(what) => write!(f, "invalid replay configuration: {what}"),
            SimError::UnknownSuperblock(id) => {
                write!(f, "trace references unregistered superblock {id}")
            }
            SimError::EmptyTrace => write!(f, "trace has no access events"),
            SimError::Ingest(what) => write!(f, "trace ingest failed: {what}"),
            SimError::Worker(what) => write!(f, "sweep worker failed: {what}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CacheError> for SimError {
    fn from(e: CacheError) -> SimError {
        SimError::Cache(e)
    }
}

/// The outcome of simulating one trace at one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Workload name (from the trace).
    pub name: String,
    /// Granularity simulated.
    pub granularity_label: String,
    /// Capacity in bytes.
    pub capacity: u64,
    /// Full cache statistics.
    pub stats: cce_core::CacheStats,
    /// Σ Eq. 3 over misses, in instructions.
    pub miss_overhead: f64,
    /// Σ Eq. 2 over eviction invocations, in instructions.
    pub eviction_overhead: f64,
    /// Σ Eq. 4 over unlink operations, in instructions (0 when not
    /// charged).
    pub unlink_overhead: f64,
    /// Superblocks that could not fit the eviction granule and were
    /// simulated as permanently uncached (normally 0).
    pub uncacheable: u64,
    /// Intra-unit links counted across periodic live-graph censuses.
    pub census_intra_links: u64,
    /// Inter-unit links counted across periodic live-graph censuses.
    pub census_inter_links: u64,
}

impl SimResult {
    /// Total management overhead in instructions.
    #[must_use]
    pub fn total_overhead(&self) -> f64 {
        self.miss_overhead + self.eviction_overhead + self.unlink_overhead
    }

    /// Management overhead per trace access, in instructions.
    #[must_use]
    pub fn overhead_per_access(&self) -> f64 {
        if self.stats.accesses == 0 {
            0.0
        } else {
            self.total_overhead() / self.stats.accesses as f64
        }
    }

    /// Fraction of live links spanning unit boundaries, averaged over the
    /// simulation's periodic link-graph censuses (Figure 13's metric).
    #[must_use]
    pub fn census_inter_fraction(&self) -> f64 {
        let total = self.census_intra_links + self.census_inter_links;
        if total == 0 {
            0.0
        } else {
            self.census_inter_links as f64 / total as f64
        }
    }
}

/// A replayable supply of trace events: a registry plus the event stream
/// in slice-sized chunks. Implemented by the in-memory [`TraceLog`] (one
/// chunk) and by [`SharedTrace`] (the decode-once, `Arc`-shared chunks a
/// sweep replays across many cells). Streaming
/// [`cce_dbt::TraceReader`]s are not `EventSource`s — their chunks are
/// fallible and consumed once — and go through
/// [`crate::replay::Replay::stream`] instead.
pub trait EventSource {
    /// Workload name for the result.
    fn source_name(&self) -> &str;
    /// The superblock registry (sizes for every id the events mention).
    fn registry(&self) -> &[SuperblockInfo];
    /// Total events across all chunks (drives census placement).
    fn event_count(&self) -> u64;
    /// The event stream, in order, in chunks.
    fn event_chunks(&self) -> Box<dyn Iterator<Item = &[TraceEvent]> + '_>;
}

impl EventSource for TraceLog {
    fn source_name(&self) -> &str {
        &self.name
    }
    fn registry(&self) -> &[SuperblockInfo] {
        &self.superblocks
    }
    fn event_count(&self) -> u64 {
        self.events.len() as u64
    }
    fn event_chunks(&self) -> Box<dyn Iterator<Item = &[TraceEvent]> + '_> {
        Box::new(std::iter::once(self.events.as_slice()))
    }
}

impl EventSource for SharedTrace {
    fn source_name(&self) -> &str {
        &self.name
    }
    fn registry(&self) -> &[SuperblockInfo] {
        &self.superblocks
    }
    fn event_count(&self) -> u64 {
        self.event_count
    }
    fn event_chunks(&self) -> Box<dyn Iterator<Item = &[TraceEvent]> + '_> {
        Box::new(self.chunks.iter().map(|c| &**c))
    }
}

/// Incremental replay: the per-event core every [`crate::replay::Replay`]
/// runs, factored out so concurrent runners can feed one tenant's stream
/// in arbitrary slices interleaved with other tenants. Feeding the same events through one
/// `SimDriver` yields a bit-identical [`SimResult`] regardless of how
/// the stream is sliced: the census period is fixed by the up-front
/// total `event_count`, never by slice boundaries.
#[derive(Debug)]
pub struct SimDriver<S: CacheSession> {
    session: S,
    name: String,
    label: String,
    config: SimConfig,
    sizes: HashMap<SuperblockId, u32>,
    event_count: u64,
    census_every: usize,
    event_idx: usize,
    miss_overhead: f64,
    eviction_overhead: f64,
    unlink_overhead: f64,
    uncacheable: u64,
    census_intra: u64,
    census_inter: u64,
}

impl<S: CacheSession> SimDriver<S> {
    /// Prepares a replay of `event_count` events against `session`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] when `event_count` is zero.
    pub fn new(
        name: &str,
        registry: &[SuperblockInfo],
        event_count: u64,
        session: S,
        label: String,
        config: &SimConfig,
    ) -> Result<SimDriver<S>, SimError> {
        if event_count == 0 {
            return Err(SimError::EmptyTrace);
        }
        Ok(SimDriver {
            session,
            name: name.to_owned(),
            label,
            config: *config,
            sizes: registry.iter().map(|s| (s.id, s.size)).collect(),
            event_count,
            // Sample the live link graph ~64 times over the run. The
            // period is a function of the *total* count, never of how
            // the stream is chunked or sliced.
            census_every: (usize::try_from(event_count).unwrap_or(usize::MAX) / 64).max(1),
            event_idx: 0,
            miss_overhead: 0.0,
            eviction_overhead: 0.0,
            unlink_overhead: 0.0,
            uncacheable: 0,
            census_intra: 0,
            census_inter: 0,
        })
    }

    /// Replays one slice of the event stream.
    ///
    /// # Errors
    ///
    /// [`SimError::Cache`] for a cache failure and
    /// [`SimError::UnknownSuperblock`] for an event outside the registry.
    pub fn feed(&mut self, events: &[TraceEvent]) -> Result<(), SimError> {
        for ev in events {
            let TraceEvent::Access { id, direct_from } = *ev;
            let size = *self.sizes.get(&id).ok_or(SimError::UnknownSuperblock(id))?;
            // Placement hint: the chain source of this direct transition,
            // if still resident (placement-aware organizations co-locate).
            let partner = direct_from.filter(|f| self.session.is_resident(*f));
            // One call looks up and, on a miss, inserts. Eqs. 2 and 4 are
            // linear, so the settled aggregate counts charge exactly what
            // walking per-eviction reports used to.
            match self
                .session
                .access_or_insert_quiet(InsertRequest::new(id, size).with_hint(partner))
            {
                Ok(outcome) => {
                    if let Some(summary) = outcome.inserted {
                        self.miss_overhead += self.config.overhead.miss_cost(u64::from(size));
                        self.eviction_overhead += self.config.overhead.eviction_cost_total(
                            u64::from(summary.evictions),
                            summary.bytes_evicted,
                        );
                        if self.config.charge_unlinks {
                            self.unlink_overhead += self.config.overhead.unlink_cost_total(
                                u64::from(summary.unlink_operations),
                                summary.links_unlinked,
                            );
                        }
                    }
                }
                // The miss was still recorded (and is still charged); the
                // block is simulated as permanently uncached.
                Err(CacheError::BlockTooLarge { .. }) => {
                    self.miss_overhead += self.config.overhead.miss_cost(u64::from(size));
                    self.uncacheable += 1;
                }
                Err(e) => return Err(SimError::Cache(e)),
            }
            if self.config.chaining {
                if let Some(from) = direct_from {
                    if self.session.is_resident(from) && self.session.is_resident(id) {
                        // Both endpoints were just checked resident, so
                        // this cannot fail for the built-in sessions —
                        // but a custom session may disagree, and that
                        // deserves an error, not a panic.
                        self.session.link(from, id).map_err(SimError::Cache)?;
                    }
                }
            }
            if self.event_idx % self.census_every == self.census_every - 1 {
                let (intra, inter) = self.session.link_census();
                self.census_intra += intra;
                self.census_inter += inter;
            }
            self.event_idx += 1;
        }
        Ok(())
    }

    /// Events fed so far.
    #[must_use]
    pub fn events_fed(&self) -> u64 {
        self.event_idx as u64
    }

    /// Finishes the replay and assembles the result.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Ingest`] if the number of fed events differs
    /// from the `event_count` promised at construction.
    pub fn finish(self) -> Result<SimResult, SimError> {
        if self.event_idx as u64 != self.event_count {
            return Err(SimError::Ingest(format!(
                "event stream delivered {} events but promised {}",
                self.event_idx, self.event_count
            )));
        }
        Ok(SimResult {
            name: self.name,
            granularity_label: self.label,
            capacity: self.session.capacity(),
            stats: self.session.stats_snapshot(),
            miss_overhead: self.miss_overhead,
            eviction_overhead: self.eviction_overhead,
            unlink_overhead: self.unlink_overhead,
            uncacheable: self.uncacheable,
            census_intra_links: self.census_intra,
            census_inter_links: self.census_inter,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Replay;
    use cce_core::ShardedCache;
    use cce_dbt::SuperblockInfo;
    use cce_tinyvm::program::Pc;

    fn sb(n: u64) -> SuperblockId {
        SuperblockId(n)
    }

    /// The engine under test, reached the way callers reach it.
    fn simulate(trace: &TraceLog, config: &SimConfig) -> Result<SimResult, SimError> {
        Replay::new(trace)
            .config(config)
            .run()
            .map(crate::replay::ReplayReport::into_solo)
    }

    /// Always builds a real [`ShardedCache`], even for one shard, so the
    /// transparency assertion below stays meaningful.
    fn simulate_sharded(
        trace: &TraceLog,
        config: &SimConfig,
        shards: u32,
    ) -> Result<SimResult, SimError> {
        let cache = ShardedCache::with_granularity(config.granularity, config.capacity, shards)?;
        Replay::new(trace)
            .config(config)
            .session(cache, config.granularity.label())
            .run()
            .map(crate::replay::ReplayReport::into_solo)
    }

    /// A trace of `n` superblocks of equal `size`, accessed round-robin
    /// `laps` times with direct transitions.
    fn round_robin(n: u64, size: u32, laps: u64) -> TraceLog {
        let mut log = TraceLog::new("rr");
        for i in 0..n {
            log.record_superblock(SuperblockInfo {
                id: sb(i),
                head_pc: Pc(i * 1000),
                size,
                guest_blocks: 4,
                exits: 2,
            });
        }
        let mut prev: Option<SuperblockId> = None;
        for _ in 0..laps {
            for i in 0..n {
                log.record_access(sb(i), prev);
                prev = Some(sb(i));
            }
        }
        log
    }

    #[test]
    fn fits_entirely_only_cold_misses() {
        let trace = round_robin(10, 100, 5);
        let cfg = SimConfig {
            capacity: 2000,
            ..SimConfig::default()
        };
        let r = simulate(&trace, &cfg).unwrap();
        assert_eq!(r.stats.misses, 10);
        assert_eq!(r.stats.capacity_misses, 0);
        assert_eq!(r.stats.eviction_invocations, 0);
        assert_eq!(r.eviction_overhead, 0.0);
        assert!(r.miss_overhead > 0.0);
    }

    #[test]
    fn cyclic_scan_thrashes_fifo() {
        // Classic FIFO pathology: a cyclic scan over a working set larger
        // than the cache misses on every access.
        let trace = round_robin(10, 100, 5);
        let cfg = SimConfig {
            capacity: 500, // holds 5 of 10
            ..SimConfig::default()
        };
        let r = simulate(&trace, &cfg).unwrap();
        assert_eq!(r.stats.miss_rate(), 1.0);
    }

    #[test]
    fn cyclic_scan_defeats_every_granularity_equally() {
        // A pure cyclic scan over twice the cache is the degenerate case
        // where no FIFO-family granularity can help: each block's reuse
        // distance exceeds any policy's retention. Both extremes miss
        // 100% — the interesting differences need real locality (covered
        // by the pressure-sweep tests).
        let trace = round_robin(10, 100, 20);
        for g in [
            Granularity::Flush,
            Granularity::units(2),
            Granularity::Superblock,
        ] {
            let r = simulate(
                &trace,
                &SimConfig {
                    granularity: g,
                    capacity: 500,
                    ..SimConfig::default()
                },
            )
            .unwrap();
            assert_eq!(r.stats.miss_rate(), 1.0, "{g}");
        }
    }

    #[test]
    fn fine_fifo_keeps_a_hot_pair_alive_better_than_flush() {
        // Two hot blocks re-touched between streaming insertions: the
        // fine-grained FIFO re-inserts them right after each eviction and
        // keeps most touches hits; FLUSH periodically wipes them with
        // everything else.
        let mut log = TraceLog::new("hotpair");
        let hot_a = sb(1000);
        let hot_b = sb(1001);
        for (i, id) in [(0u64, hot_a), (1, hot_b)] {
            let _ = i;
            log.record_superblock(SuperblockInfo {
                id,
                head_pc: Pc(id.0 * 100),
                size: 100,
                guest_blocks: 2,
                exits: 2,
            });
        }
        for i in 0..300u64 {
            log.record_superblock(SuperblockInfo {
                id: sb(i),
                head_pc: Pc(i * 100),
                size: 100,
                guest_blocks: 2,
                exits: 2,
            });
        }
        let mut prev = None;
        for i in 0..300u64 {
            for id in [hot_a, hot_b, hot_a, hot_b, sb(i)] {
                log.record_access(id, prev);
                prev = Some(id);
            }
        }
        let run = |g| {
            simulate(
                &log,
                &SimConfig {
                    granularity: g,
                    capacity: 1000,
                    ..SimConfig::default()
                },
            )
            .unwrap()
            .stats
            .miss_rate()
        };
        let fine = run(Granularity::Superblock);
        let flush = run(Granularity::Flush);
        assert!(fine < flush, "fine {fine} vs flush {flush}");
    }

    #[test]
    fn unlink_charges_follow_config() {
        let trace = round_robin(10, 100, 10);
        let base = SimConfig {
            granularity: Granularity::units(2),
            capacity: 500,
            ..SimConfig::default()
        };
        let with = simulate(&trace, &base).unwrap();
        let without = simulate(
            &trace,
            &SimConfig {
                charge_unlinks: false,
                ..base
            },
        )
        .unwrap();
        assert_eq!(without.unlink_overhead, 0.0);
        assert_eq!(
            with.stats, without.stats,
            "charging must not change behaviour"
        );
        assert!(with.unlink_overhead >= 0.0);
    }

    #[test]
    fn chaining_off_creates_no_links() {
        let trace = round_robin(5, 100, 5);
        let r = simulate(
            &trace,
            &SimConfig {
                capacity: 1000,
                chaining: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.stats.links_created, 0);
    }

    #[test]
    fn oversized_block_is_reported_not_fatal() {
        let mut trace = round_robin(2, 100, 2);
        trace.record_superblock(SuperblockInfo {
            id: sb(99),
            head_pc: Pc(99_000),
            size: 5000,
            guest_blocks: 40,
            exits: 2,
        });
        trace.record_access(sb(99), None);
        trace.record_access(sb(99), None);
        let r = simulate(
            &trace,
            &SimConfig {
                capacity: 1000,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r.uncacheable, 2);
    }

    #[test]
    fn empty_trace_is_an_error() {
        let log = TraceLog::new("empty");
        assert_eq!(
            simulate(&log, &SimConfig::default()).unwrap_err(),
            SimError::EmptyTrace
        );
    }

    #[test]
    fn unknown_superblock_is_an_error() {
        let mut log = TraceLog::new("bad");
        log.record_access(sb(7), None);
        assert_eq!(
            simulate(&log, &SimConfig::default()).unwrap_err(),
            SimError::UnknownSuperblock(sb(7))
        );
    }

    #[test]
    fn sharded_one_shard_reproduces_the_bare_simulation() {
        let trace = round_robin(12, 100, 8);
        for g in [
            Granularity::Flush,
            Granularity::units(4),
            Granularity::Superblock,
        ] {
            let cfg = SimConfig {
                granularity: g,
                capacity: 600,
                ..SimConfig::default()
            };
            let bare = simulate(&trace, &cfg).unwrap();
            let sharded = simulate_sharded(&trace, &cfg, 1).unwrap();
            assert_eq!(bare, sharded, "{g}: one shard must be transparent");
        }
    }

    #[test]
    fn sharding_preserves_the_access_stream() {
        let trace = round_robin(16, 100, 8);
        let cfg = SimConfig {
            capacity: 800,
            ..SimConfig::default()
        };
        let bare = simulate(&trace, &cfg).unwrap();
        for shards in [2u32, 4, 8] {
            let r = simulate_sharded(&trace, &cfg, shards).unwrap();
            assert_eq!(r.stats.accesses, bare.stats.accesses, "shards={shards}");
            assert_eq!(r.capacity, bare.capacity, "total capacity is fixed");
            assert_eq!(r.stats.accesses, r.stats.hits + r.stats.misses);
            // Determinism: the sharded replay is a pure function.
            assert_eq!(r, simulate_sharded(&trace, &cfg, shards).unwrap());
        }
    }

    #[test]
    fn overhead_per_access_is_total_over_accesses() {
        let trace = round_robin(10, 100, 10);
        let r = simulate(
            &trace,
            &SimConfig {
                capacity: 500,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let expect = r.total_overhead() / r.stats.accesses as f64;
        assert!((r.overhead_per_access() - expect).abs() < 1e-9);
    }
}
