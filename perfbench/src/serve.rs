//! `serve`: open-loop traffic through `ServePlan` / `run_serve`.
//!
//! Poisson arrivals with Zipf 0.8 popularity over the `gcc` registry,
//! 4 tenants, 64-event requests over the in-process pipe, one worker
//! thread. The nominal phase serves [`NOMINAL_RPS`] in short sub-runs
//! (latency percentiles are the median over sub-runs). The capacity
//! phase walks an up-down staircase over a fixed geometric rate ladder:
//! short trials step up a rung after meeting the p99 limit and down
//! after missing it, so the walk settles on the rung where trials meet
//! the limit about half the time.

use crate::probes::{self, Cell, ProbeInput};
use crate::stats::{median, timed};
use crate::host::PROBE_REF_S;
use crate::{repeat_setup, Ctx, Outcome};
use cce_core::Granularity;
use cce_dbt::TraceLog;
use cce_sim::serve::{offline_baseline, ServePlan};
use cce_sim::{run_serve, ServeConfig, ServeReport};
use cce_util::Json;
use cce_workloads::catalog;
use std::time::Instant;

/// Offered load of the nominal phase, requests per second.
pub const NOMINAL_RPS: f64 = 2000.0;
/// The p99 service-latency limit a trial must meet, and the most a run
/// may take to drain after its last scheduled arrival.
pub const P99_LIMIT_MS: f64 = 20.0;
/// The rate ladder: `LADDER_BASE_RPS × LADDER_STEP^i`, i < `LADDER_RUNGS`.
pub const LADDER_BASE_RPS: f64 = 1000.0;
pub const LADDER_STEP: f64 = 1.025;
pub const LADDER_RUNGS: usize = 128;
/// The staircase starts at this rung (about 4000 rps) with this stride
/// in rungs; every reversal halves the stride, down to one rung.
const START_RUNG: usize = 56;
const START_STRIDE: usize = 8;
/// Length of one capacity trial, in seconds.
const TRIAL_SECS: f64 = 0.5;
/// Share of the budget that serves the nominal rate; the rest walks
/// the ladder.
const NOMINAL_SHARE: f64 = 0.4;
/// Length of one nominal sub-run, in seconds.
const SUB_RUN_SECS: f64 = 1.0;
const SETUP_REPS: usize = 5;
const REGISTRY_TRACE: &str = "gcc";

/// The serve configuration at the nominal rate.
pub fn nominal_config(seed: u64, duration_secs: f64) -> ServeConfig {
    ServeConfig {
        tenants: 4,
        threads: 1,
        rps: NOMINAL_RPS,
        duration_secs,
        batch_events: 64,
        skew: 0.8,
        seed,
        ..ServeConfig::default()
    }
}

/// The rate of ladder position `rung` (fractional positions interpolate
/// geometrically).
pub fn ladder_rps(rung: f64) -> f64 {
    LADDER_BASE_RPS * LADDER_STEP.powf(rung)
}

/// `run_serve` wall time after the last scheduled arrival, in ms.
pub fn drain_ms(plan: &ServePlan, report: &ServeReport) -> f64 {
    let last = plan.requests.last().map_or(0, |r| r.at_nanos) as f64 / 1e9;
    (report.wall_secs - last) * 1e3
}

/// Requests of a run that were offered but not applied: shed at
/// ingress, rejected on the wire, or never reached a worker.
fn unapplied_requests(report: &ServeReport, batch: usize) -> u64 {
    let applied = report.applied_events / batch.max(1) as u64;
    report.offered_requests.saturating_sub(applied)
}

/// One capacity trial.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub drain_ms: f64,
    pub offered: u64,
    pub unapplied: u64,
}

impl Trial {
    /// Met the p99 limit, drained in time, and lost no request (a lost
    /// request counts as missing the limit).
    pub fn passed(&self) -> bool {
        self.unapplied == 0 && self.p99_ms <= P99_LIMIT_MS && self.drain_ms <= P99_LIMIT_MS
    }
}

/// The up-down staircase over the rate ladder.
#[derive(Debug, Clone)]
pub struct Staircase {
    rung: usize,
    stride: usize,
    last: Option<bool>,
    /// Every trial so far: rung, stride in force, passed.
    visits: Vec<(usize, usize, bool)>,
}

impl Default for Staircase {
    fn default() -> Staircase {
        Staircase {
            rung: START_RUNG,
            stride: START_STRIDE,
            last: None,
            visits: Vec::new(),
        }
    }
}

impl Staircase {
    /// The rung the next trial runs at.
    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Records the outcome of a trial at [`Staircase::rung`] and moves:
    /// up after a pass, down after a miss. A reversal halves the stride.
    pub fn record(&mut self, passed: bool) {
        if self.last.is_some_and(|prev| prev != passed) {
            self.stride = (self.stride / 2).max(1);
        }
        self.last = Some(passed);
        self.visits.push((self.rung, self.stride, passed));
        self.rung = if passed {
            (self.rung + self.stride).min(LADDER_RUNGS - 1)
        } else {
            self.rung.saturating_sub(self.stride)
        };
    }

    /// The knee: the mean rung of the passing trials made once the walk
    /// first missed at unit stride, when it oscillates around the limit.
    /// Falls back to every unit-stride pass, then to every pass; `None`
    /// if no trial passed.
    pub fn knee(&self) -> Option<f64> {
        let settled = self
            .visits
            .iter()
            .position(|&(_, stride, passed)| stride == 1 && !passed)
            .unwrap_or(self.visits.len());
        let mean = |from: usize, unit_only: bool| {
            let rungs: Vec<f64> = self.visits[from..]
                .iter()
                .filter(|(_, stride, passed)| *passed && (!unit_only || *stride == 1))
                .map(|(rung, _, _)| *rung as f64)
                .collect();
            (!rungs.is_empty()).then(|| rungs.iter().sum::<f64>() / rungs.len() as f64)
        };
        mean(settled, true)
            .or_else(|| mean(0, true))
            .or_else(|| mean(0, false))
    }

    pub fn trials(&self) -> usize {
        self.visits.len()
    }
}

/// Tenants whose `CacheStats` differ from the offline reference.
pub fn stats_mismatches(report: &ServeReport, offline: &[cce_core::CacheStats]) -> Vec<usize> {
    (0..offline.len().max(report.per_tenant.len()))
        .filter(|&t| report.per_tenant.get(t).map(|s| &s.stats) != offline.get(t))
        .collect()
}

struct Setup {
    trace: TraceLog,
    /// Nominal sub-run plans with their configurations.
    plans: Vec<(ServeConfig, ServePlan)>,
}

fn derived_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

fn build(
    ctx: &Ctx<'_>,
    sub_runs: usize,
    sub_secs: f64,
    gen_times: &mut Vec<f64>,
) -> Result<Setup, String> {
    let model = catalog::by_name(REGISTRY_TRACE).ok_or("catalog is missing gcc")?;
    let (trace, secs) = {
        let _s = ctx.tracer.span("setup.trace_gen");
        timed(|| model.trace(ctx.scale, ctx.seed))
    };
    gen_times.push(secs);
    let _s = ctx.tracer.span("setup.plans");
    let plans = (0..sub_runs as u64)
        .map(|k| {
            let cfg = nominal_config(derived_seed(ctx.seed, k), sub_secs);
            ServePlan::build(&trace.superblocks, &trace.name, &cfg).map(|p| (cfg, p))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Setup { trace, plans })
}

/// What the nominal phase measured.
#[derive(Default)]
struct Nominal {
    wall_s: f64,
    /// `wall_s` normalised to the reference host.
    norm_wall_s: f64,
    /// Traced runs only: summed wall time of each sub-run's traced twin.
    twin_wall_s: f64,
    p50: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
    drain: Vec<f64>,
    samples: u64,
    high_water: u64,
    offered_events: u64,
    applied_events: u64,
}

/// Serves every nominal plan once. Each offered request is an op; each
/// sub-run's per-tenant stats must equal `offline_baseline`. A traced
/// run follows every sub-run with a twin inside its span.
fn nominal_phase(ctx: &Ctx<'_>, setup: &Setup, out: &mut Outcome) -> Result<Nominal, String> {
    let mut n = Nominal::default();
    for (k, (cfg, plan)) in setup.plans.iter().enumerate() {
        let before = ctx.host.probe();
        let report = run_serve(plan, cfg).map_err(|e| e.to_string())?;
        let probe = (before + ctx.host.probe()) / 2.0;
        let offline = offline_baseline(plan, cfg).map_err(|e| e.to_string())?;
        if ctx.traced() {
            let _s = ctx.tracer.span(format!("serve.nominal.sub{k}"));
            let twin = run_serve(plan, cfg).map_err(|e| e.to_string())?;
            n.twin_wall_s += twin.wall_secs;
            if !stats_mismatches(&twin, &offline).is_empty() {
                out.fail(
                    1,
                    format!("nominal sub-run {k}: traced twin differs from offline_baseline"),
                );
            }
        }
        n.wall_s += report.wall_secs;
        n.norm_wall_s += report.wall_secs * PROBE_REF_S / probe;
        n.p50.push(report.latency.p50_nanos as f64 / 1e6);
        n.p95.push(report.latency.p95_nanos as f64 / 1e6);
        n.p99.push(report.latency.p99_nanos as f64 / 1e6);
        n.drain.push(drain_ms(plan, &report));
        n.samples += report.latency.samples;
        n.high_water = n.high_water.max(report.queue_high_water);
        n.offered_events += report.offered_events;
        n.applied_events += report.applied_events;

        out.ops += report.offered_requests;
        let lost = unapplied_requests(&report, cfg.batch_events);
        if lost > 0 {
            out.fail(lost, format!("nominal sub-run {k} lost {lost} requests"));
        }
        let bad = stats_mismatches(&report, &offline);
        if !bad.is_empty() {
            out.fail(
                bad.len() as u64,
                format!("nominal sub-run {k}: tenants {bad:?} differ from offline_baseline"),
            );
        }
        for t in &report.per_tenant {
            out.digest.add(&t.stats);
        }
    }
    Ok(n)
}

/// What the capacity phase measured.
struct Capacity {
    /// Knee rate, requests per second (`None` if no trial passed).
    max_rps: Option<f64>,
    offered_events: u64,
    applied_events: u64,
    table: Json,
}

/// Walks the staircase for `seconds` (at least a few trials). The
/// trials are probes: they locate the knee and are not counted as ops.
fn capacity_phase(ctx: &Ctx<'_>, trace: &TraceLog, seconds: f64) -> Result<Capacity, String> {
    let mut stairs = Staircase::default();
    let mut offered_events = 0;
    let mut applied_events = 0;
    let mut table = Vec::new();
    let t0 = Instant::now();
    while stairs.trials() < 4 || t0.elapsed().as_secs_f64() < seconds {
        let rung = stairs.rung();
        let cfg = ServeConfig {
            rps: ladder_rps(rung as f64),
            ..nominal_config(
                derived_seed(ctx.seed, 1000 + stairs.trials() as u64),
                TRIAL_SECS,
            )
        };
        let _span = ctx
            .tracer
            .span(format!("serve.trial{}.rung{rung}", stairs.trials()));
        let plan =
            ServePlan::build(&trace.superblocks, &trace.name, &cfg).map_err(|e| e.to_string())?;
        let report = run_serve(&plan, &cfg).map_err(|e| e.to_string())?;
        offered_events += report.offered_events;
        applied_events += report.applied_events;
        let trial = Trial {
            p50_ms: report.latency.p50_nanos as f64 / 1e6,
            p99_ms: report.latency.p99_nanos as f64 / 1e6,
            drain_ms: drain_ms(&plan, &report),
            offered: report.offered_requests,
            unapplied: unapplied_requests(&report, cfg.batch_events),
        };
        table.push(Json::obj(vec![
            ("rung", Json::from(rung)),
            ("rps", Json::from(cfg.rps)),
            ("p50_ms", Json::from(trial.p50_ms)),
            ("p99_ms", Json::from(trial.p99_ms)),
            ("drain_ms", Json::from(trial.drain_ms)),
            ("offered", Json::from(trial.offered)),
            ("unapplied", Json::from(trial.unapplied)),
            ("passed", Json::from(trial.passed())),
        ]));
        stairs.record(trial.passed());
    }
    Ok(Capacity {
        max_rps: stairs.knee().map(ladder_rps),
        offered_events,
        applied_events,
        table: Json::Arr(table),
    })
}

pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let nominal_secs = ctx.seconds * NOMINAL_SHARE;
    let sub_runs = ((nominal_secs / SUB_RUN_SECS).round() as usize).max(1);
    let sub_secs = nominal_secs / sub_runs as f64;

    let mut gen_times = Vec::new();
    let (setup, setup_times, setup_norm) = repeat_setup(SETUP_REPS, ctx, || {
        build(ctx, sub_runs, sub_secs, &mut gen_times)
    })?;

    let nominal = nominal_phase(ctx, &setup, &mut out)?;
    let capacity = capacity_phase(ctx, &setup.trace, ctx.seconds - nominal_secs)?;
    let max_rps = capacity.max_rps.unwrap_or(0.0);
    if capacity.max_rps.is_none() {
        out.fail(1, "no capacity trial met the p99 limit");
    }
    let batch = nominal_config(0, 1.0).batch_events as f64;

    out.note(
        "serve",
        Json::obj(vec![
            ("registry", Json::from(REGISTRY_TRACE)),
            ("nominal_rps", Json::from(NOMINAL_RPS)),
            ("nominal_sub_runs", Json::from(sub_runs)),
            ("nominal_sub_run_secs", Json::from(sub_secs)),
            ("latency_samples", Json::from(nominal.samples)),
            ("serve_p50_ms", Json::from(median(&nominal.p50))),
            ("serve_p95_ms", Json::from(median(&nominal.p95))),
            ("serve_p99_ms", Json::from(median(&nominal.p99))),
            (
                "sub_run_p50_ms",
                Json::Arr(nominal.p50.iter().map(|&x| Json::from(x)).collect()),
            ),
            (
                "sub_run_p95_ms",
                Json::Arr(nominal.p95.iter().map(|&x| Json::from(x)).collect()),
            ),
            (
                "sub_run_p99_ms",
                Json::Arr(nominal.p99.iter().map(|&x| Json::from(x)).collect()),
            ),
            ("p99_limit_ms", Json::from(P99_LIMIT_MS)),
            (
                "rate_ladder",
                Json::obj(vec![
                    ("base_rps", Json::from(LADDER_BASE_RPS)),
                    ("step", Json::from(LADDER_STEP)),
                    ("rungs", Json::from(LADDER_RUNGS)),
                    ("start_rung", Json::from(START_RUNG)),
                    ("start_stride", Json::from(START_STRIDE)),
                    ("trial_secs", Json::from(TRIAL_SECS)),
                ]),
            ),
            ("serve_max_rps", Json::from(max_rps)),
            ("trials", capacity.table),
        ]),
    );

    if ctx.traced() {
        out.metric("workloads.trace_gen_s", median(&gen_times));
        let input = ProbeInput {
            traces: vec![&setup.trace],
            cells: vec![Cell {
                trace: &setup.trace,
                granularity: Granularity::Superblock,
                pressure: 4,
                shards: nominal_config(0, 1.0).shards,
            }],
            tenants_trace: &setup.trace,
            serve_trace: &setup.trace,
            serve_run: false,
        };
        probes::run_all(ctx, &input, &mut out)?;
        let offered = nominal.offered_events + capacity.offered_events;
        let applied = nominal.applied_events + capacity.applied_events;
        out.metric(
            "sim.serve.queue_high_water_events",
            nominal.high_water as f64,
        );
        out.metric(
            "sim.serve.applied_share",
            applied as f64 / offered.max(1) as f64,
        );
        out.metric("sim.serve.service_p50_ms", median(&nominal.p50));
        out.metric("sim.serve.service_p99_ms", median(&nominal.p99));
        out.metric("sim.serve.drain_ms", median(&nominal.drain));
        out.metric(
            "trace.overhead_share",
            (nominal.twin_wall_s - nominal.wall_s) / nominal.wall_s,
        );
    } else {
        // Capacity is a rate: scaled by the run's median probe.
        let speed = median(&ctx.host.times()) / PROBE_REF_S;
        out.end_to_end(
            [median(&setup_times), median(&setup_norm)],
            [nominal.wall_s, nominal.norm_wall_s],
            [max_rps * batch, max_rps * batch * speed],
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trial(p99_ms: f64, unapplied: u64) -> Trial {
        Trial {
            p50_ms: p99_ms / 4.0,
            p99_ms,
            drain_ms: 1.0,
            offered: 100,
            unapplied,
        }
    }

    /// A synthetic latency curve: p99 grows like a queue near capacity.
    fn curve(rps: f64, capacity: f64) -> f64 {
        let rho = (rps / capacity).min(0.9999);
        0.5 + 0.1 * rho / (1.0 - rho)
    }

    #[test]
    fn staircase_settles_on_the_highest_rung_under_the_limit() {
        for capacity in [1500.0, 4000.0, 6300.0, 15000.0] {
            let meets = |rung: usize| curve(ladder_rps(rung as f64), capacity) <= P99_LIMIT_MS;
            let expect = (0..LADDER_RUNGS).rev().find(|&r| meets(r)).unwrap();
            let mut stairs = Staircase::default();
            for _ in 0..40 {
                let rung = stairs.rung();
                stairs.record(trial(curve(ladder_rps(rung as f64), capacity), 0).passed());
            }
            assert_eq!(stairs.knee(), Some(expect as f64), "capacity {capacity}");
            assert!(meets(expect) && !meets(expect + 1));
        }
    }

    #[test]
    fn staircase_knee_is_none_without_a_passing_trial() {
        let mut stairs = Staircase::default();
        for _ in 0..20 {
            stairs.record(false);
        }
        assert_eq!(stairs.rung(), 0);
        assert_eq!(stairs.knee(), None);
        let mut up = Staircase::default();
        for _ in 0..40 {
            up.record(true);
        }
        assert_eq!(up.rung(), LADDER_RUNGS - 1);
    }

    #[test]
    fn a_lost_request_or_a_late_drain_misses_the_limit() {
        assert!(trial(3.0, 0).passed());
        assert!(!trial(30.0, 0).passed());
        assert!(!trial(3.0, 1).passed());
        let mut late = trial(3.0, 0);
        late.drain_ms = 2.0 * P99_LIMIT_MS;
        assert!(!late.passed());
    }

    #[test]
    fn ladder_is_geometric_with_small_steps() {
        let rates: Vec<f64> = (0..LADDER_RUNGS).map(|r| ladder_rps(r as f64)).collect();
        assert_eq!(rates[0], LADDER_BASE_RPS);
        assert!(rates.windows(2).all(|w| w[1] / w[0] <= 1.10 + 1e-12));
    }

    #[test]
    fn serve_oracle_flags_a_perturbed_tenant() {
        let trace = catalog::by_name("gzip").unwrap().trace(0.05, 3);
        let cfg = nominal_config(3, 0.05);
        let plan = ServePlan::build(&trace.superblocks, &trace.name, &cfg).unwrap();
        let report = run_serve(&plan, &cfg).unwrap();
        let offline = offline_baseline(&plan, &cfg).unwrap();
        assert!(stats_mismatches(&report, &offline).is_empty());
        let mut perturbed = offline.clone();
        perturbed[1].hits += 1;
        assert_eq!(stats_mismatches(&report, &perturbed), vec![1]);
    }
}
