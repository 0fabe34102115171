//! The metric catalogue: every metric the benchmark can print, with its
//! unit, the direction that counts as better, and whether it belongs to
//! the untraced (end-to-end) or the traced (per-layer) run.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! self-test keeps the two in step.

/// Which run prints a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by the untraced run (`--trace 0`).
    EndToEnd,
    /// Printed by the traced run (`--trace 1`).
    Layer,
}

/// One catalogue entry.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Layer,
    }
}

/// Every metric, end-to-end first. See `README.md` for what each one
/// means on each workload.
pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", "lower"),
    e2e("peak_rss_mib", "MiB", "lower"),
    e2e("norm_wall_s", "s", "lower"),
    e2e("norm_events_per_s", "1/s", "higher"),
    layer("workloads.trace_gen_s", "s", "lower"),
    layer("sim.serve.plan_s", "s", "lower"),
    layer("dbt.trace_bin.encode_ns_per_event", "ns", "lower"),
    layer("dbt.trace_bin.decode_ns_per_event", "ns", "lower"),
    layer("dbt.stream.encode_ns_per_event", "ns", "lower"),
    layer("dbt.stream.decode_ns_per_event", "ns", "lower"),
    layer("sim.simulator.feed_ns_per_event", "ns", "lower"),
    layer("sim.simulator.feed_self_ns_per_event", "ns", "lower"),
    layer("core.session.access_or_insert_calls", "count", "lower"),
    layer("core.session.access_or_insert_ns", "ns", "lower"),
    layer("core.session.link_calls", "count", "lower"),
    layer("core.session.link_ns", "ns", "lower"),
    layer("core.session.probe_calls", "count", "lower"),
    layer("core.session.probe_ns", "ns", "lower"),
    layer("core.session.census_calls", "count", "lower"),
    layer("core.session.census_ns", "ns", "lower"),
    layer("core.cache.hit_ratio", "ratio", "higher"),
    layer("core.org.evictions_per_kevent", "1/kevent", "lower"),
    layer("core.org.blocks_per_eviction", "count", "higher"),
    layer("core.links.unlinks_per_eviction", "count", "lower"),
    layer("core.concurrent.scaling_2v1", "ratio", "higher"),
    layer("sim.ladder.ns_per_cell_event", "ns", "lower"),
    layer("sim.sweep.naive_ns_per_cell_event", "ns", "lower"),
    layer("sim.ladder.speedup_vs_naive", "ratio", "higher"),
    layer("sim.serve.queue_high_water_events", "count", "lower"),
    layer("sim.serve.applied_share", "ratio", "higher"),
    layer("sim.serve.service_p50_ms", "ms", "lower"),
    layer("sim.serve.service_p99_ms", "ms", "lower"),
    layer("sim.serve.drain_ms", "ms", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
];

/// The catalogue entry for `name`.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The metrics a run of the given kind must print.
pub fn required(kind: Kind) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.kind == kind)
}
