//! The GAIA-rs benchmark: four workloads driven through the public API,
//! their outputs checked, every metric printed by name with its unit.
//!
//! ```text
//! gaia-perfbench --workload <run-year|run-year-audited|sweep-grid|serve-tcp>
//!     --seed N --seconds S --trace 0|1 --gaia PATH --work DIR
//!     [--commit C --rustc V --source D]
//! gaia-perfbench record        # print the digest table for digests.txt
//! gaia-perfbench spread FILE   # per-metric spread over a results.jsonl
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last stdout line is the result object; the line before it
//! records provenance (commit, host, seeds, sample counts). Both are also
//! appended to `<work>/results.jsonl`, and a traced run writes its spans
//! to `<work>/spans-<workload>-<seed>.jsonl`. `perfbench/run.py` builds
//! this binary and `gaia`, then runs it.

mod alloc;
mod out;
mod pace;
mod runyear;
mod scenario;
mod serve;
mod spans;
mod stats;
mod sweep;
mod wrap;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use out::{json_number, json_string, Outcome};
use spans::Spans;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, by `--workload` name.
const WORKLOADS: [&str; 4] = ["run-year", "run-year-audited", "sweep-grid", "serve-tcp"];

/// End-to-end metrics (`--trace 0`), printed on every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), printed on every workload; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("carbon.synth_ms", "ms"),
    ("carbon.forecast_build_ms", "ms"),
    ("workload.synth_ms", "ms"),
    ("workload.jobs", "count"),
    ("core.plan_ms", "ms"),
    ("core.plan_calls", "count"),
    ("core.plan_ns_per_call", "ns"),
    ("sim.submit_ms", "ms"),
    ("sim.event_loop_self_ms", "ms"),
    ("sim.report_ms", "ms"),
    ("sim.audit_ms", "ms"),
    ("sim.audit_checks", "count"),
    ("sim.segments", "count"),
    ("sim.event_loop_allocs", "count"),
    ("sim.report_allocs", "count"),
    ("sim.audit_allocs", "count"),
    ("obs.emit_ms", "ms"),
    ("obs.finish_ms", "ms"),
    ("obs.events", "count"),
    ("obs.trace_bytes", "bytes"),
    ("metrics.summary_ms", "ms"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_max", "ms"),
    ("sweep.parallel_efficiency", "ratio"),
    ("sweep.cache_hits", "count"),
    ("sweep.cache_misses", "count"),
    ("sweep.cache_persists", "count"),
    ("sweep.trace_cache_hits", "count"),
    ("sweep.trace_cache_misses", "count"),
    ("sweep.cache_bytes", "bytes"),
    ("sweep.cold_cells_per_s", "1/s"),
    ("sweep.replay_cells_per_s", "1/s"),
    ("serve.apply_us_p50", "us"),
    ("serve.apply_us_p90", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.rtt_us_p50", "us"),
    ("serve.rtt_us_p90", "us"),
    ("serve.req_per_s", "1/s"),
    ("serve.snapshot_ms", "ms"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.errors", "count"),
    ("cli.run_process_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// What every workload needs to know about its run.
pub struct Ctx {
    /// Benchmark `--seed`.
    pub seed: u64,
    /// The seed the program's inputs are synthesized from.
    pub program_seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: f64,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
    /// The `gaia` binary.
    pub gaia: PathBuf,
    /// Sweep workers: the host's available parallelism.
    pub workers: usize,
    spans_path: PathBuf,
}

impl Ctx {
    /// `share` of the measuring time.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// Writes a traced run's spans; a failed write marks the run
    /// incorrect.
    pub fn write_spans(&self, spans: &Spans, out: &mut Outcome) {
        out.check(
            spans
                .write_jsonl(&self.spans_path)
                .map_err(|e| format!("cannot write {}: {e}", self.spans_path.display())),
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    gaia: PathBuf,
    work: PathBuf,
    commit: String,
    rustc: String,
    source: String,
}

fn absolute(path: &str) -> Result<PathBuf, String> {
    std::path::absolute(path).map_err(|e| format!("bad path {path:?}: {e}"))
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        gaia: PathBuf::new(),
        work: PathBuf::new(),
        commit: "unknown".into(),
        rustc: "unknown".into(),
        source: "unknown".into(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("invalid {flag} {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1) as f64,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            // Absolute, because child processes run in scratch directories.
            "--gaia" => args.gaia = absolute(&value)?,
            "--work" => args.work = absolute(&value)?,
            "--commit" => args.commit = value,
            "--rustc" => args.rustc = value,
            "--source" => args.source = value,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if args.gaia.as_os_str().is_empty() || args.work.as_os_str().is_empty() {
        return Err("--gaia and --work are required".into());
    }
    Ok(args)
}

/// Prints the digest table: the reference run and the sweep grid for
/// every program seed.
fn record() {
    println!("# <kind> <program seed> <fnv1a digest>, written by `gaia-perfbench record`");
    for program_seed in scenario::BASE_SEED..scenario::BASE_SEED + scenario::SEED_VARIANTS {
        let inputs = scenario::synth_inputs(program_seed);
        let mut policy = scenario::policy().build(scenario::queues(&inputs.workload));
        let report = gaia_sim::Simulation::new(
            scenario::config(&inputs.workload, program_seed),
            &inputs.carbon,
        )
        .runner(&inputs.workload, &mut policy)
        .execute()
        .expect("reference run")
        .into_report();
        let digest = scenario::details_digest(&report);
        println!(
            "{}",
            scenario::digest_line(scenario::DigestKind::Run, program_seed, digest)
        );
        let run = sweep::grid(program_seed)
            .runner()
            .executor(&gaia_sweep::Executor::available().with_progress(false))
            .audit(true)
            .execute()
            .expect("reference grid");
        assert!(
            run.is_clean(),
            "reference grid has failed or unaudited cells"
        );
        let csv = gaia_sweep::store::scenarios_csv(&run);
        println!(
            "{}",
            scenario::digest_line(
                scenario::DigestKind::Sweep,
                program_seed,
                gaia_sim::fnv1a(csv.as_bytes())
            )
        );
    }
}

/// Prints, per workload and pass, each metric's median over the recorded
/// runs and the interquartile range as a share of that median — the
/// spread `BENCHMARK.json`'s bounds are judged by.
fn spread(path: &str) -> Result<(), String> {
    use gaia_obs::json::{self, Value};
    use std::collections::BTreeMap;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut groups: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = json::parse(line)?;
        let provenance = record.get("provenance");
        let field = |k: &str| provenance.and_then(|p| p.get(k));
        let workload = field("workload").and_then(Value::as_str).unwrap_or("?");
        let trace = field("trace").and_then(Value::as_f64).unwrap_or(0.0);
        let Some(Value::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) else {
            continue;
        };
        let group = groups
            .entry(format!("{workload} (trace {trace})"))
            .or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                group.entry(name.clone()).or_default().push(value);
            }
        }
    }
    for (group, metrics) in &groups {
        println!("{group}");
        for (name, values) in metrics {
            let iqr = stats::iqr_share(values).map_or("-".to_string(), |s| format!("{s:.4}"));
            println!(
                "  {name:<28} n={:<3} median={:<16.6} iqr/median={iqr}",
                values.len(),
                stats::median(values)
            );
        }
    }
    Ok(())
}

/// Orders the metrics the way `BENCHMARK.json` lists them, filling
/// layers the workload did not exercise with 0.
fn canonical(out: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    names
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .metrics
                .iter()
                .find(|(n, _, _)| *n == name)
                .map_or(0.0, |(_, v, _)| *v);
            (name, value, unit)
        })
        .collect()
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("record") => {
            record();
            return ExitCode::SUCCESS;
        }
        Some("spread") => {
            let path = argv
                .nth(1)
                .unwrap_or_else(|| ".bench_work/results.jsonl".into());
            return match spread(&path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("gaia-perfbench: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gaia-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.work.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("gaia-perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        program_seed: scenario::program_seed(args.seed),
        seconds: args.seconds,
        work: run_dir.clone(),
        gaia: args.gaia.clone(),
        workers,
        spans_path: args
            .work
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed)),
    };

    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("run-year", false) => runyear::run(&ctx, false, &mut out),
        ("run-year", true) => runyear::traced(&ctx, false, &mut out),
        ("run-year-audited", false) => runyear::run(&ctx, true, &mut out),
        ("run-year-audited", true) => runyear::traced(&ctx, true, &mut out),
        ("sweep-grid", false) => sweep::run(&ctx, &mut out),
        ("sweep-grid", true) => sweep::traced(&ctx, &mut out),
        (_, false) => serve::run(&ctx, &mut out),
        (_, true) => serve::traced(&ctx, &mut out),
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    out.metrics = canonical(&out, args.trace);

    for (name, value, unit) in &out.metrics {
        eprintln!("{name:>28} {value:>16.4} {unit}");
    }
    for (name, n) in &out.samples {
        eprintln!("{name:>28} {n:>16} samples");
    }
    for problem in &out.problems {
        eprintln!("FAILED: {problem}");
    }

    let samples: Vec<String> = out
        .samples
        .iter()
        .map(|(name, n)| format!("{}:{n}", json_string(name)))
        .collect();
    let provenance = format!(
        "{{\"bench\":\"gaia-perfbench\",\"workload\":{},\"seed\":{},\"program_seed\":{},\
         \"held_out_seed\":{},\"trace\":{},\"seconds\":{},\"commit\":{},\"source_digest\":{},\
         \"host\":{{\"nproc\":{workers},\"rustc\":{}}},\"samples\":{{{}}}}}",
        json_string(&args.workload),
        args.seed,
        ctx.program_seed,
        scenario::HELD_OUT_SEED,
        u8::from(args.trace),
        json_number(args.seconds),
        json_string(&args.commit),
        json_string(&args.source),
        json_string(&args.rustc),
        samples.join(","),
    );
    let result = out.result_json();
    if let Ok(mut log) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.work.join("results.jsonl"))
    {
        let _ = writeln!(log, "{{\"provenance\":{provenance},\"result\":{result}}}");
    }
    println!("{provenance}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_obs::json::{self, Value};

    /// `BENCHMARK.json` and the tables above name the same metrics and
    /// workloads, in the same order and units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let spec = json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            match spec.get(key) {
                Some(Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| {
                            m.get(f)
                                .and_then(Value::as_str)
                                .map(str::to_owned)
                                .unwrap_or_default()
                        };
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json lacks {key}"),
            }
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn canonical_fills_unexercised_layers_with_zero() {
        let mut out = Outcome::default();
        out.metric("core.plan_ms", 3.5, "ms");
        let metrics = canonical(&out, true);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[4], ("core.plan_ms", 3.5, "ms"));
        assert_eq!(metrics[0], ("carbon.synth_ms", 0.0, "ms"));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let ok = args(&[
            "--workload",
            "sweep-grid",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
            "--gaia",
            "g",
            "--work",
            "w",
        ])
        .expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3.0, true));
        assert!(args(&["--workload", "nope", "--gaia", "g", "--work", "w"]).is_err());
        assert!(args(&[
            "--workload",
            "serve-tcp",
            "--trace",
            "2",
            "--gaia",
            "g",
            "--work",
            "w"
        ])
        .is_err());
        assert!(args(&["--workload", "serve-tcp"]).is_err());
    }
}
