//! The repository benchmark: four workloads through the public API,
//! timed end to end (untraced run) and layer by layer (traced run).
//! End-to-end times are normalised to a reference host speed by a
//! memory probe run before each timed op (`host.rs`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid|replay|tenants|serve --seed N --seconds S --trace 0|1
//!     [--scale F] [--held-out]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the run
//! record (host, seed, scale, sample counts, result digest, the metric
//! catalogue with directions). A traced run also writes its spans to
//! `.perfbench/`. `README.md` documents every metric and workload.

mod catalog;
mod grid;
mod host;
mod probes;
mod replay;
mod serve;
mod stats;
mod tenants;
mod tracer;

use catalog::Kind;
use host::HostProbe;
use cce_util::Json;
use stats::Digest;
use std::collections::BTreeMap;
use std::process::ExitCode;
use tracer::Tracer;

/// The reserved seed `--held-out` selects. Tuning uses small seeds;
/// a claim is re-checked on this one, which no tuning run touched.
pub const HELD_OUT_SEED: u64 = 0x00c0_ffee_5eed;

/// What one run was asked to do.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Workload trace scale in (0, 1] (1.0 = the paper's sizes).
    pub scale: f64,
    pub tracer: &'a Tracer,
    /// Times the end-to-end ops against the host's current speed.
    pub host: &'a HostProbe,
}

impl Ctx<'_> {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (counted as each workload's README entry says).
    pub ops: u64,
    /// Failed operations: simulation errors, oracle mismatches, shed or
    /// unapplied requests.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific run-record fields (sample counts, rate ladder…).
    pub record: Vec<(&'static str, Json)>,
    /// Digest over every simulated result.
    pub digest: Digest,
}

impl Outcome {
    pub fn fail(&mut self, count: u64, message: impl Into<String>) {
        self.failed += count;
        if self.failures.len() < 8 {
            self.failures.push(message.into());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            catalog::lookup(name).is_some(),
            "uncatalogued metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: Json) {
        self.record.push((key, value));
    }

    /// Prints the normalised end-to-end times (see `host.rs`) and notes
    /// the raw ones in the run record. Each argument is `[raw, norm]`.
    pub fn end_to_end(&mut self, setup_s: [f64; 2], wall_s: [f64; 2], events_per_s: [f64; 2]) {
        self.metric("setup_s", setup_s[1]);
        self.metric("norm_wall_s", wall_s[1]);
        self.metric("norm_events_per_s", events_per_s[1]);
        self.note(
            "raw",
            Json::obj(vec![
                ("setup_s", Json::from(setup_s[0])),
                ("wall_s", Json::from(wall_s[0])),
                ("events_per_s", Json::from(events_per_s[0])),
            ]),
        );
    }
}

/// Runs `build` `reps` times (dropping each result before the next
/// build, so memory stays that of one set-up) and returns the last
/// result with the per-repetition wall seconds, raw and normalised.
pub fn repeat_setup<T>(
    reps: usize,
    ctx: &Ctx<'_>,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut norm = Vec::with_capacity(reps);
    let mut last = None;
    for i in 0..reps.max(1) {
        drop(last.take());
        let _span = ctx.tracer.span(format!("setup.rep{i}"));
        let (out, secs, norm_secs) = ctx.host.timed(&mut build);
        times.push(secs);
        norm.push(norm_secs);
        last = Some(out?);
    }
    let last = last.ok_or("set-up ran zero times")?;
    Ok((last, times, norm))
}

struct Args {
    workload: String,
    seed: u64,
    held_out: bool,
    seconds: f64,
    trace: bool,
    scale: f64,
}

const USAGE: &str = "usage: perfbench --workload grid|replay|tenants|serve --seed N \
                     --seconds S --trace 0|1 [--scale F] [--held-out]";

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        held_out: false,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--held-out" {
            args.held_out = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = parse(&flag, &value)?,
            "--seconds" => args.seconds = parse(&flag, &value)?,
            "--trace" => args.trace = parse::<u8>(&flag, &value)? != 0,
            "--scale" => args.scale = parse(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.held_out {
        args.seed = HELD_OUT_SEED;
    }
    if args.scale.is_nan() || args.scale <= 0.0 || args.scale > 1.0 {
        return Err("--scale must be in (0, 1]".to_owned());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// First line of a command's standard output, or `"unavailable"`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unavailable".to_owned())
}

/// The commit checked out in the working directory, read from `.git`
/// itself so that a checkout without one never reports an enclosing
/// repository's HEAD.
fn git_head() -> Option<String> {
    let git = std::path::Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, r) = l.split_once(' ')?;
        (r == name).then(|| id.to_owned())
    })
}

fn host_record() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unavailable".to_owned());
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    Json::obj(vec![
        ("available_parallelism", Json::from(parallelism)),
        ("nproc", Json::from(command_line("nproc", &[]))),
        ("cpu_model", Json::from(cpu)),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "git_head",
            Json::from(git_head().unwrap_or_else(|| "unavailable".to_owned())),
        ),
    ])
}

fn run(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let host = HostProbe::new();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        tracer,
        host: &host,
    };
    let _span = tracer.span(format!("workload.{}", args.workload));
    let mut outcome = match args.workload.as_str() {
        "grid" => grid::run(&ctx),
        "replay" => replay::run(&ctx),
        "tenants" => tenants::run(&ctx),
        "serve" => serve::run(&ctx),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }?;
    if !args.trace {
        outcome.metric("peak_rss_mib", peak_rss_mib());
    }
    let probes = host.times();
    outcome.note(
        "host_probe",
        Json::obj(vec![
            ("ref_ms", Json::from(host::PROBE_REF_S * 1e3)),
            ("probes", Json::from(probes.len())),
            ("median_ms", Json::from(stats::median(&probes) * 1e3)),
        ]),
    );
    Ok(outcome)
}

/// Checks that `outcome` carries every metric the run kind must print,
/// each finite, and renders the `metrics` object and the catalogue.
fn render_metrics(outcome: &Outcome, kind: Kind) -> Result<(Json, Json), String> {
    let mut metrics = Vec::new();
    let mut listed = Vec::new();
    for m in catalog::required(kind) {
        let value = *outcome
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("workload did not measure {}", m.name))?;
        if !value.is_finite() {
            return Err(format!("{} is not finite: {value}", m.name));
        }
        metrics.push((
            m.name.to_owned(),
            Json::obj(vec![
                ("value", Json::from(value)),
                ("unit", Json::from(m.unit)),
            ]),
        ));
        listed.push(Json::obj(vec![
            ("name", Json::from(m.name)),
            ("value", Json::from(value)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better)),
        ]));
    }
    Ok((Json::Obj(metrics), Json::Arr(listed)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let outcome = match run(&args, &tracer) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let mut outcome = outcome;
    let kind = if args.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    let (metrics, listed) = match render_metrics(&outcome, kind) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let correct = outcome.failed == 0 && outcome.ops > 0;

    let mut record = vec![
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("held_out", Json::from(args.held_out)),
        ("scale", Json::from(args.scale)),
        ("seconds", Json::from(args.seconds)),
        ("traced", Json::from(args.trace)),
        ("host", host_record()),
        ("digest", Json::from(outcome.digest.hex())),
        ("ops", Json::from(outcome.ops)),
        ("ops_failed", Json::from(outcome.failed)),
        (
            "failures",
            Json::Arr(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
        ("metrics", listed),
    ];
    record.append(&mut outcome.record);
    if args.trace {
        let dir = std::path::Path::new(".perfbench");
        let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json().to_string_compact()));
        match written {
            Ok(()) => record.push(("spans_file", Json::from(path.to_string_lossy().as_ref()))),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }
    for f in &outcome.failures {
        eprintln!("perfbench: {}: FAILED: {f}", args.workload);
    }
    println!(
        "{}",
        Json::obj(vec![("run_record", Json::obj(record))]).to_string_compact()
    );
    let result = Json::obj(vec![
        ("correct", Json::from(correct)),
        ("attempted", Json::from(outcome.ops)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 4] = ["grid", "replay", "tenants", "serve"];

    #[test]
    fn every_workload_emits_every_metric_with_unit_and_direction() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_owned(),
                    seed: 3,
                    held_out: false,
                    seconds: 0.5,
                    trace,
                    scale: 0.02,
                };
                let tracer = Tracer::new(trace);
                let outcome = run(&args, &tracer).unwrap();
                assert!(outcome.ops > 0, "{workload}");
                assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.failures);
                let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
                let (metrics, listed) = render_metrics(&outcome, kind).unwrap();
                let Json::Obj(metrics) = metrics else {
                    panic!("metrics must be an object")
                };
                assert_eq!(metrics.len(), catalog::required(kind).count());
                for entry in listed.as_arr().unwrap() {
                    assert!(!entry.get("unit").and_then(Json::as_str).unwrap().is_empty());
                    let better = entry.get("better").and_then(Json::as_str).unwrap();
                    assert!(better == "lower" || better == "higher");
                }
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            let names: Vec<&str> = listed
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap())
                .collect();
            let expect: Vec<&str> = catalog::required(kind).map(|m| m.name).collect();
            assert_eq!(names, expect, "{key}");
            for (m, c) in listed.iter().zip(catalog::required(kind)) {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(c.unit),
                    "{}",
                    c.name
                );
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(c.better),
                    "{}",
                    c.name
                );
            }
        }
        // `serve` runs on demand but is not gated (see README.md).
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ["grid", "replay", "tenants"]);
    }
}
