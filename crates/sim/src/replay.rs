//! The one front door for running a simulation: [`Replay`].
//!
//! Every experiment has the same shape — one trace replayed at one
//! `(granularity, maxCache / n)` cell, or across a grid of such cells
//! (§4.2) — and every run, from a unit test to a paper figure, is
//! configured and launched through this builder:
//!
//! ```
//! use cce_sim::replay::Replay;
//! use cce_sim::simulator::SimConfig;
//! use cce_workloads::catalog;
//!
//! let trace = catalog::by_name("mcf").unwrap().trace(0.3, 1);
//! let r = Replay::new(&trace)
//!     .config(&SimConfig::default())
//!     .pressure(2)       // capacity = maxCache / 2, unit-clamped
//!     .shards(2)         // over a 2-shard consistent-hashed cache
//!     .run()?
//!     .into_solo();
//! assert!(r.stats.miss_rate() > 0.0);
//! # Ok::<(), cce_sim::SimError>(())
//! ```
//!
//! * **Input** — [`Replay::new`] takes any [`EventSource`] (a
//!   [`cce_dbt::TraceLog`], a decode-once [`cce_dbt::SharedTrace`]);
//!   [`Replay::stream`] takes a streaming [`cce_dbt::TraceReader`]
//!   whose decoder thread overlaps I/O with the simulation.
//! * **Geometry** — [`Replay::granularity`] / [`Replay::capacity`] set
//!   the cell directly; [`Replay::pressure`] derives the capacity from
//!   the trace's own footprint (`maxCache / n`, §4.2) with the unit
//!   clamp of [`crate::pressure::effective_granularity`];
//!   [`Replay::shards`] splits the same total capacity over a
//!   consistent-hashed [`cce_core::ShardedCache`]. Set
//!   [`Replay::config`] first: it replaces the whole [`SimConfig`],
//!   granularity and capacity included.
//! * **Session** — [`Replay::session`] swaps in an arbitrary pre-built
//!   [`CacheSession`] (custom policies, ablations); the builder's own
//!   geometry knobs then only shape the overhead model.
//! * **Tenancy** — [`Replay::tenants`] replays the trace as N identical
//!   guests over one shared [`ConcurrentSession`] on
//!   [`Replay::threads`] workers; [`Replay::concurrent`] replays one
//!   trace per tenant of a caller-built session (heterogeneous
//!   organizations or budgets). Without an arbiter every tenant's
//!   result is byte-identical to its solo sharded run.
//! * **Sweeps** — [`Replay::matrix`] runs the full `(trace × shards ×
//!   pressure × granularity)` grid across worker threads with the
//!   deterministic pre-indexed slots of [`crate::sweep`].
//!
//! Every path lands in the same [`crate::simulator::SimDriver`] core,
//! so a result's statistics and overheads depend only on the trace and
//! the cell — never on the input kind, chunking, worker count or engine.
//! The streaming-replay, concurrent and ladder conformance suites pin
//! this.

use crate::concurrent::run_tenants;
use crate::ladder::Engine;
use crate::pressure::{cell_config, TraceSizing};
use crate::simulator::{EventSource, SimConfig, SimDriver, SimError, SimResult};
use crate::sweep::{run_matrix, SweepPoint};
use cce_core::{
    ArbiterConfig, CacheSession, CodeCache, ConcurrentSession, Granularity, ShardedCache,
    TenantConfig,
};
use cce_dbt::{SharedTrace, TraceReader};

/// What a [`Replay`] runs: one event stream, or one trace per tenant of
/// a caller-built concurrent session.
enum Input<'a> {
    Solo(Feed<'a>),
    Tenants(&'a ConcurrentSession, &'a [SharedTrace]),
}

/// Where a solo replay's events come from: a replayable source or a
/// consume-once streaming reader.
enum Feed<'a> {
    Source(&'a dyn EventSource),
    Reader(&'a mut TraceReader),
}

/// One replay, being configured. See the [module docs](self) for the
/// full tour; [`Replay::run`] executes it.
pub struct Replay<'a> {
    input: Input<'a>,
    config: SimConfig,
    pressure: Option<u32>,
    shards: Option<u32>,
    tenants: Option<usize>,
    threads: usize,
    slice: usize,
    arbiter: Option<ArbiterConfig>,
    session: Option<(Box<dyn CacheSession>, String)>,
}

impl<'a> Replay<'a> {
    fn with_input(input: Input<'a>) -> Replay<'a> {
        Replay {
            input,
            config: SimConfig::default(),
            pressure: None,
            shards: None,
            tenants: None,
            threads: 1,
            slice: 256,
            arbiter: None,
            session: None,
        }
    }

    /// Replays any [`EventSource`]: an in-memory [`cce_dbt::TraceLog`], a
    /// decode-once [`SharedTrace`].
    #[must_use]
    pub fn new<T: EventSource>(source: &'a T) -> Replay<'a> {
        Replay::with_input(Input::Solo(Feed::Source(source)))
    }

    /// Replays a streaming [`TraceReader`]: the reader's decoder thread
    /// stays ahead of the simulation, so peak event memory is O(chunk).
    /// The reader is consumed to its end (or first error).
    #[must_use]
    pub fn stream(reader: &'a mut TraceReader) -> Replay<'a> {
        Replay::with_input(Input::Solo(Feed::Reader(reader)))
    }

    /// Replays `traces[t]` as tenant `t` of a caller-built `session` —
    /// the entry point for heterogeneous tenants (custom organizations or
    /// budgets via [`TenantConfig::new`]). The session brings its own
    /// geometry and arbiter, so combining this with [`Replay::pressure`],
    /// [`Replay::shards`], [`Replay::tenants`], [`Replay::arbiter`] or
    /// [`Replay::session`] is a [`SimError::Config`]; [`Replay::config`]
    /// supplies the cost models and [`Replay::threads`] /
    /// [`Replay::slice`] the worker layout. The session keeps its state
    /// afterwards (e.g. [`ConcurrentSession::decisions`]).
    #[must_use]
    pub fn concurrent(session: &'a ConcurrentSession, traces: &'a [SharedTrace]) -> Replay<'a> {
        Replay::with_input(Input::Tenants(session, traces))
    }

    /// Starts a sweep over `traces`: the full `(trace × shards ×
    /// pressure × granularity)` grid on a deterministic worker pool.
    #[must_use]
    pub fn matrix<T: EventSource + Sync>(traces: &'a [T]) -> ReplayMatrix<'a, T> {
        ReplayMatrix {
            traces,
            granularities: vec![Granularity::Superblock],
            pressures: vec![2],
            shard_counts: vec![1],
            base: SimConfig::default(),
            jobs: 1,
            engine: Engine::default(),
        }
    }

    /// Uses `base` as the full simulator configuration (granularity,
    /// capacity, overhead models, chaining switches). It replaces
    /// everything, so call it before [`Replay::granularity`] and
    /// [`Replay::capacity`].
    #[must_use]
    pub fn config(mut self, base: &SimConfig) -> Replay<'a> {
        self.config = *base;
        self
    }

    /// Sets the eviction granularity.
    #[must_use]
    pub fn granularity(mut self, granularity: Granularity) -> Replay<'a> {
        self.config.granularity = granularity;
        self
    }

    /// Sets the capacity in bytes directly.
    #[must_use]
    pub fn capacity(mut self, bytes: u64) -> Replay<'a> {
        self.config.capacity = bytes;
        self
    }

    /// Derives the capacity from the trace's own unbounded footprint:
    /// `maxCache / pressure`, floored at
    /// [`crate::pressure::MIN_CAPACITY`], with the granularity's unit
    /// count clamped so every unit fits the largest superblock
    /// (per shard, when sharded). Overrides [`Replay::capacity`]. The
    /// result is labelled with the clamped granularity.
    #[must_use]
    pub fn pressure(mut self, pressure: u32) -> Replay<'a> {
        self.pressure = Some(pressure);
        self
    }

    /// Splits the total capacity over `shards` consistent-hashed shards
    /// (1 = a bare cache).
    #[must_use]
    pub fn shards(mut self, shards: u32) -> Replay<'a> {
        self.shards = Some(shards.max(1));
        self
    }

    /// Replays against a pre-built session (any [`CacheSession`]) with
    /// `label` naming it in the result. The session brings its own
    /// geometry; the builder's granularity/capacity then only shape the
    /// overhead model. Solo replay only — combining this with
    /// [`Replay::tenants`] or [`Replay::concurrent`] is a configuration
    /// error.
    #[must_use]
    pub fn session<S: CacheSession + 'static>(
        mut self,
        session: S,
        label: impl Into<String>,
    ) -> Replay<'a> {
        self.session = Some((Box::new(session), label.into()));
        self
    }

    /// Replays the trace as `tenants` identical guests sharing one
    /// concurrent cache (each tenant gets the configured capacity, split
    /// over the configured shards exactly like its solo run).
    #[must_use]
    pub fn tenants(mut self, tenants: usize) -> Replay<'a> {
        self.tenants = Some(tenants.max(1));
        self
    }

    /// Worker threads for a concurrent tenant replay (default 1, the
    /// fully reproducible setting).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Replay<'a> {
        self.threads = threads.max(1);
        self
    }

    /// Events per round-robin turn within a concurrent worker.
    #[must_use]
    pub fn slice(mut self, slice: usize) -> Replay<'a> {
        self.slice = slice.max(1);
        self
    }

    /// Enables Memshare-style capacity arbitration between tenants.
    #[must_use]
    pub fn arbiter(mut self, cfg: ArbiterConfig) -> Replay<'a> {
        self.arbiter = Some(cfg);
        self
    }

    /// Executes the replay.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for contradictory knobs (zero pressure, a
    /// custom session combined with tenants, geometry or tenancy knobs
    /// combined with [`Replay::concurrent`]), plus every error class of
    /// the underlying engine ([`SimError::Cache`],
    /// [`SimError::UnknownSuperblock`], [`SimError::EmptyTrace`],
    /// [`SimError::Ingest`]).
    pub fn run(self) -> Result<ReplayReport, SimError> {
        let Replay {
            input,
            mut config,
            pressure,
            shards,
            tenants,
            threads,
            slice,
            arbiter,
            session,
        } = self;
        let feed = match input {
            Input::Tenants(own, traces) => {
                if pressure.is_some()
                    || shards.is_some()
                    || tenants.is_some()
                    || arbiter.is_some()
                    || session.is_some()
                {
                    return Err(SimError::Config(
                        "a concurrent session brings its own geometry, tenants and arbiter",
                    ));
                }
                return ReplayReport::from_results(run_tenants(
                    own, traces, &config, threads, slice,
                )?);
            }
            Input::Solo(feed) => feed,
        };
        let shards = shards.unwrap_or(1);
        if let Some(p) = pressure {
            if p == 0 {
                return Err(SimError::Config("pressure must be nonzero"));
            }
            let sizing = match &feed {
                Feed::Source(s) => TraceSizing::of_source(*s),
                Feed::Reader(r) => TraceSizing::of_registry(r.superblocks()),
            };
            config = cell_config(sizing, config.granularity, p, shards, &config);
        }

        if let Some(n) = tenants.filter(|&n| n > 1) {
            if session.is_some() {
                return Err(SimError::Config(
                    "a custom session applies to solo replay only",
                ));
            }
            let shared = match feed {
                Feed::Source(s) => materialize(s),
                Feed::Reader(r) => {
                    collect_reader(r).map_err(|e| SimError::Ingest(e.to_string()))?
                }
            };
            let configs = (0..n)
                .map(|_| TenantConfig::with_granularity(config.granularity, config.capacity))
                .collect();
            let own = ConcurrentSession::new(configs, shards, arbiter)?;
            let traces = vec![shared; n];
            return ReplayReport::from_results(run_tenants(
                &own, &traces, &config, threads, slice,
            )?);
        }

        let result = match session {
            Some((boxed, label)) => run_solo(feed, boxed, label, &config)?,
            None if shards <= 1 => {
                let cache = CodeCache::with_granularity(config.granularity, config.capacity)?;
                run_solo(feed, cache, config.granularity.label(), &config)?
            }
            None => {
                let cache =
                    ShardedCache::with_granularity(config.granularity, config.capacity, shards)?;
                run_solo(feed, cache, config.granularity.label(), &config)?
            }
        };
        ReplayReport::from_results(vec![result])
    }
}

impl std::fmt::Debug for Replay<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("config", &self.config)
            .field("pressure", &self.pressure)
            .field("shards", &self.shards)
            .field("tenants", &self.tenants)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

/// Replays one event stream against `session`, chunk by chunk. A
/// streaming reader is consumed to its end (or first error); the census
/// schedule comes from its header's event count, so the result is
/// bit-identical to replaying the same trace in memory.
fn run_solo<S: CacheSession>(
    feed: Feed<'_>,
    session: S,
    label: String,
    config: &SimConfig,
) -> Result<SimResult, SimError> {
    match feed {
        Feed::Source(s) => {
            let (name, registry, events) = (s.source_name(), s.registry(), s.event_count());
            let mut driver = SimDriver::new(name, registry, events, session, label, config)?;
            for chunk in s.event_chunks() {
                driver.feed(chunk)?;
            }
            driver.finish()
        }
        Feed::Reader(r) => {
            let registry = r.superblocks_shared();
            let mut driver =
                SimDriver::new(r.name(), &registry, r.event_count(), session, label, config)?;
            while let Some(chunk) = r.next_chunk() {
                driver.feed(&chunk.map_err(|e| SimError::Ingest(e.to_string()))?)?;
            }
            driver.finish()
        }
    }
}

/// Copies any [`EventSource`] into a [`SharedTrace`] the concurrent
/// runner can clone per tenant ( `Arc` clones — the events are copied
/// exactly once).
fn materialize(source: &dyn EventSource) -> SharedTrace {
    SharedTrace {
        name: source.source_name().to_owned(),
        superblocks: source.registry().to_vec().into(),
        event_count: source.event_count(),
        chunks: source.event_chunks().map(|c| c.to_vec().into()).collect(),
    }
}

fn collect_reader(
    reader: &mut TraceReader,
) -> Result<SharedTrace, cce_dbt::trace_log::TraceLogError> {
    let mut chunks = Vec::new();
    let mut total = 0u64;
    while let Some(chunk) = reader.next_chunk() {
        let chunk = chunk?;
        total += chunk.len() as u64;
        chunks.push(chunk);
    }
    Ok(SharedTrace {
        name: reader.name().to_owned(),
        superblocks: reader.superblocks_shared(),
        event_count: total,
        chunks,
    })
}

/// The outcome of a [`Replay::run`]: one [`SimResult`] per tenant (a
/// solo replay is the 1-tenant case), in tenant order. Construction
/// guarantees at least one result, so [`ReplayReport::solo`] and
/// [`ReplayReport::into_solo`] never panic.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    head: SimResult,
    tail: Vec<SimResult>,
}

impl ReplayReport {
    fn from_results(mut results: Vec<SimResult>) -> Result<ReplayReport, SimError> {
        if results.is_empty() {
            return Err(SimError::EmptyTrace);
        }
        let tail = results.split_off(1);
        let Some(head) = results.pop() else {
            return Err(SimError::EmptyTrace);
        };
        Ok(ReplayReport { head, tail })
    }

    /// Tenant 0's result — *the* result of a solo replay.
    #[must_use]
    pub fn solo(&self) -> &SimResult {
        &self.head
    }

    /// Consumes the report into tenant 0's result.
    #[must_use]
    pub fn into_solo(self) -> SimResult {
        self.head
    }

    /// Number of tenants (1 for a solo replay).
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        1 + self.tail.len()
    }

    /// All per-tenant results, in tenant order.
    pub fn tenants(&self) -> impl Iterator<Item = &SimResult> {
        std::iter::once(&self.head).chain(self.tail.iter())
    }

    /// Consumes the report into the per-tenant result vector.
    #[must_use]
    pub fn into_tenants(self) -> Vec<SimResult> {
        let mut out = Vec::with_capacity(1 + self.tail.len());
        out.push(self.head);
        out.extend(self.tail);
        out
    }
}

/// A planned sweep over many traces — built by [`Replay::matrix`], run
/// by [`ReplayMatrix::run`]. Cells are enumerated in the canonical
/// [`crate::sweep::plan`] order and executed on `jobs` worker threads
/// with pre-indexed result slots, so output is byte-identical at any
/// worker count.
#[derive(Debug)]
pub struct ReplayMatrix<'a, T: EventSource + Sync> {
    traces: &'a [T],
    granularities: Vec<Granularity>,
    pressures: Vec<u32>,
    shard_counts: Vec<u32>,
    base: SimConfig,
    jobs: usize,
    engine: Engine,
}

impl<T: EventSource + Sync> ReplayMatrix<'_, T> {
    /// Sets the granularity axis (default: `[Superblock]`).
    #[must_use]
    pub fn granularities(mut self, gs: &[Granularity]) -> Self {
        self.granularities = gs.to_vec();
        self
    }

    /// Sets the pressure axis (default: `[2]`).
    #[must_use]
    pub fn pressures(mut self, ps: &[u32]) -> Self {
        self.pressures = ps.to_vec();
        self
    }

    /// Sets the shard-count axis (default: `[1]`).
    #[must_use]
    pub fn shard_counts(mut self, ns: &[u32]) -> Self {
        self.shard_counts = ns.to_vec();
        self
    }

    /// Base simulator configuration for every cell (granularity and
    /// capacity are overridden per cell).
    #[must_use]
    pub fn config(mut self, base: &SimConfig) -> Self {
        self.base = *base;
        self
    }

    /// Worker threads (default 1; see [`crate::sweep::resolve_jobs`]
    /// for the `--jobs`/`CCE_JOBS` precedence helper).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Selects the simulation engine (default [`Engine::Naive`]).
    /// [`Engine::Ladder`] fuses every unsharded cell of a trace into
    /// one single-pass replay (DESIGN.md §14) with byte-identical
    /// results; sharded cells always run on the per-cell oracle.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Runs every cell and returns results in plan order.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing cell — independent of
    /// scheduling — or [`SimError::Worker`] if a worker thread died.
    pub fn run(self) -> Result<Vec<SweepPoint>, SimError> {
        run_matrix(
            self.traces,
            &self.granularities,
            &self.pressures,
            &self.shard_counts,
            &self.base,
            self.jobs,
            self.engine,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cce_core::{FineFifo, Granularity};
    use cce_dbt::TraceLog;
    use cce_workloads::catalog;

    fn trace() -> TraceLog {
        catalog::by_name("gzip").unwrap().trace(0.1, 7)
    }

    #[test]
    fn solo_defaults_replay_the_trace() {
        let t = trace();
        let r = Replay::new(&t).run().unwrap();
        assert_eq!(r.tenant_count(), 1);
        assert_eq!(r.solo().stats.accesses, t.events.len() as u64);
    }

    #[test]
    fn shared_trace_and_in_memory_agree() {
        let t = trace();
        let shared = SharedTrace::from_log(&t);
        let a = Replay::new(&t).pressure(3).run().unwrap().into_solo();
        let b = Replay::new(&shared).pressure(3).run().unwrap().into_solo();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_pressure_is_a_config_error_not_a_panic() {
        let t = trace();
        assert!(matches!(
            Replay::new(&t).pressure(0).run(),
            Err(SimError::Config(_))
        ));
    }

    #[test]
    fn session_override_with_tenants_is_rejected() {
        let t = trace();
        let cache = CodeCache::new(Box::new(FineFifo::new(8192).unwrap()));
        let err = Replay::new(&t)
            .session(cache, "FIFO")
            .tenants(2)
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)));

        // A caller-built concurrent session brings its own geometry,
        // tenancy and arbiter: every knob that would override them is
        // rejected rather than silently ignored.
        let traces = [SharedTrace::from_log(&t)];
        let tenant = TenantConfig::with_granularity(Granularity::units(4), 16 * 1024);
        let session = ConcurrentSession::new(vec![tenant], 2, None).unwrap();
        let conflicts: [fn(Replay<'_>) -> Replay<'_>; 5] = [
            |r| r.pressure(2),
            |r| r.shards(2),
            |r| r.tenants(2),
            |r| r.arbiter(ArbiterConfig::default()),
            |r| {
                r.session(
                    CodeCache::new(Box::new(FineFifo::new(8192).unwrap())),
                    "FIFO",
                )
            },
        ];
        for (i, conflict) in conflicts.into_iter().enumerate() {
            let err = conflict(Replay::concurrent(&session, &traces))
                .run()
                .unwrap_err();
            assert!(matches!(err, SimError::Config(_)), "conflict {i}: {err}");
        }
        // Without them the same session replays fine.
        let ok = Replay::concurrent(&session, &traces).run().unwrap();
        assert_eq!(ok.tenant_count(), 1);
    }

    #[test]
    fn custom_session_carries_its_label() {
        let t = trace();
        let cache = CodeCache::new(Box::new(FineFifo::new(8192).unwrap()));
        let r = Replay::new(&t).session(cache, "FIFO").run().unwrap();
        assert_eq!(r.solo().granularity_label, "FIFO");
    }

    #[test]
    fn tenants_replay_identically_without_an_arbiter() {
        let t = trace();
        let report = Replay::new(&t)
            .granularity(Granularity::units(4))
            .capacity(16 * 1024)
            .shards(2)
            .tenants(3)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(report.tenant_count(), 3);
        let all: Vec<_> = report.tenants().collect();
        assert!(all.iter().all(|r| *r == all[0]));
        // And each equals the solo sharded run at the same geometry.
        let solo = Replay::new(&t)
            .granularity(Granularity::units(4))
            .capacity(16 * 1024)
            .shards(2)
            .run()
            .unwrap()
            .into_solo();
        assert_eq!(*all[0], solo);
    }

    #[test]
    fn matrix_matches_single_cell_replays() {
        let traces = vec![trace()];
        let gs = [Granularity::Flush, Granularity::Superblock];
        let points = Replay::matrix(&traces)
            .granularities(&gs)
            .pressures(&[2, 6])
            .jobs(2)
            .run()
            .unwrap();
        assert_eq!(points.len(), 4);
        for p in &points {
            let solo = Replay::new(&traces[p.cell.trace])
                .granularity(p.cell.granularity)
                .pressure(p.cell.pressure)
                .shards(p.cell.shards)
                .run()
                .unwrap()
                .into_solo();
            // The matrix keeps the *requested* granularity label; the
            // underlying stats must agree exactly.
            assert_eq!(p.result.stats, solo.stats);
            assert_eq!(p.result.capacity, solo.capacity);
        }
    }
}
