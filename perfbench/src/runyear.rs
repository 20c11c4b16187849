//! `run-year` and `run-year-audited`: the reference scenario run in
//! process, closed loop, one run after another.
//!
//! The end-to-end pass times `SimRunner::execute` exactly as `gaia run`
//! calls it. The traced pass runs the same scenario split into its
//! layer calls (`OnlineEngine::new/submit/run_until_idle/into_report`,
//! `audit_report_faulted`, `JsonlSink::finish`, `Summary::of`) and
//! checks that the split run reproduces the untraced report and trace
//! bytes exactly.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gaia_carbon::{CarbonTrace, PerfectForecaster};
use gaia_metrics::Summary;
use gaia_obs::{JsonlSink, NullSink, Sink};
use gaia_sim::{
    audit_report_faulted, AuditReport, ClusterConfig, OnlineEngine, SimReport, Simulation,
};
use gaia_workload::{QueueSet, WorkloadTrace};

use crate::out::{peak_rss_mb, Outcome};
use crate::pace::Pace;
use crate::scenario::{self, DigestKind, Inputs};
use crate::spans::Spans;
use crate::stats::median;
use crate::wrap::{TimedScheduler, TimedSink};
use crate::{alloc, Ctx};

/// Program seeds the end-to-end pass rotates through.
const ROTATION: u64 = 8;
/// Input syntheses in the traced pass. The end-to-end pass synthesizes
/// each rotated input once before the first run and one more after every
/// `SETUP_EVERY`-th run; `setup_s` is the median of all of these, so its
/// samples spread over the whole measuring time as the run samples do.
const SETUP_REPS: usize = 3;
const SETUP_EVERY: usize = 4;
/// Timed runs per run at the least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// What one run checks and produces.
struct Scenario<'a> {
    carbon: &'a CarbonTrace,
    workload: &'a WorkloadTrace,
    config: ClusterConfig,
    queues: QueueSet,
    audited: bool,
    trace_path: &'a Path,
    program_seed: u64,
}

/// Synthesizes the inputs `SETUP_REPS` times, each half in its own
/// span, and returns the last set.
fn traced_setup(program_seed: u64, spans: &mut Spans) -> Inputs {
    let mut last = None;
    for rep in 0..SETUP_REPS as u64 {
        let inputs = Inputs {
            carbon: spans.time("carbon.synth", rep, || scenario::synth_carbon(program_seed)),
            workload: spans.time("workload.synth", rep, || {
                scenario::synth_workload(program_seed)
            }),
        };
        last = Some(std::hint::black_box(inputs));
    }
    last.expect("at least one setup rep")
}

/// Deletes the trace file of the previous run, so the next one writes a
/// new file, as `gaia run --trace` to a fresh path does. Truncating the
/// old file instead would make ext4 start writing its contents back to
/// disk when the new ones are closed (its replace-via-truncate
/// heuristic), which puts disk I/O into every audited run. A deleted
/// file's pages never reach the disk.
fn discard(path: &Path) {
    let _ = std::fs::remove_file(path);
}

/// One run through `SimRunner`, as `gaia run [--audit --trace]` makes it.
fn run_untraced(s: &Scenario<'_>) -> (Duration, Result<SimReport, String>) {
    let sim = Simulation::new(s.config, s.carbon);
    let mut policy = scenario::policy().build(s.queues);
    discard(s.trace_path);
    let started = Instant::now();
    let result = if s.audited {
        File::create(s.trace_path)
            .map_err(|e| format!("cannot create {}: {e}", s.trace_path.display()))
            .and_then(|file| {
                let mut sink = JsonlSink::new(BufWriter::new(file));
                let run = sim
                    .runner(s.workload, &mut policy)
                    .sink(&mut sink)
                    .audit(true)
                    .execute()
                    .map_err(|e| e.to_string());
                let finished = sink.finish().map_err(|e| format!("trace write: {e}"));
                let run = run?;
                finished?;
                audit_clean(run.audit.as_ref())?;
                Ok(run.report)
            })
    } else {
        sim.runner(s.workload, &mut policy)
            .execute()
            .map(|run| run.report)
            .map_err(|e| e.to_string())
    };
    (started.elapsed(), result)
}

fn audit_clean(audit: Option<&AuditReport>) -> Result<(), String> {
    match audit {
        Some(a) if a.is_clean() => Ok(()),
        Some(a) => Err(format!("audit: {} violation(s)", a.violations.len())),
        None => Err("audit did not run".into()),
    }
}

fn check_report(s: &Scenario<'_>, report: &SimReport) -> Result<(), String> {
    scenario::check_digest(
        DigestKind::Run,
        s.program_seed,
        scenario::details_digest(report),
    )
}

impl<'a> Scenario<'a> {
    fn new(inputs: &'a Inputs, program_seed: u64, audited: bool, trace_path: &'a Path) -> Self {
        Scenario {
            carbon: &inputs.carbon,
            workload: &inputs.workload,
            config: scenario::config(&inputs.workload, program_seed),
            queues: scenario::queues(&inputs.workload),
            audited,
            trace_path,
            program_seed,
        }
    }
}

/// The end-to-end pass. It rotates through the program seeds of
/// benchmark seeds `seed .. seed + ROTATION`, one run each in turn, and
/// every `SETUP_EVERY` runs replaces one seed's inputs with a fresh
/// synthesis. So its medians rest on several inputs, each at several
/// places in memory, and do not hang on one input's quirks or on where
/// it happened to be allocated. Times are reported at reference pace
/// (`pace.rs`): every timed run and input synthesis sits between two
/// kernel ticks.
pub fn run(ctx: &Ctx, audited: bool, out: &mut Outcome) {
    let mut pace = Pace::start();
    let mut setup_samples = Vec::new();
    let program_seeds: Vec<u64> = (0..ROTATION)
        .map(|k| scenario::program_seed(ctx.seed + k))
        .collect();
    let mut inputs: Vec<Inputs> = program_seeds
        .iter()
        .map(|&program_seed| {
            let (inputs, sample) = pace.time(|| scenario::synth_inputs(program_seed));
            setup_samples.push(sample);
            inputs
        })
        .collect();
    let trace_path = ctx.work.join("run.jsonl");
    let mut samples = Vec::new();
    let mut jobs = Vec::new();
    let started = Instant::now();
    // The first pass over the rotation warms caches and is checked but
    // not timed.
    let mut rep = 0;
    while rep < program_seeds.len() + MIN_REPS || started.elapsed() < ctx.budget(1.0) {
        let k = rep % program_seeds.len();
        let s = Scenario::new(&inputs[k], program_seeds[k], audited, &trace_path);
        let (took, result) = run_untraced(&s);
        let sample = pace.record(took);
        out.op(result.and_then(|report| check_report(&s, &report)));
        if rep >= program_seeds.len() {
            samples.push(sample);
            jobs.push(s.workload.len() as f64);
        }
        rep += 1;
        if rep % SETUP_EVERY == 0 {
            let k = (rep / SETUP_EVERY) % program_seeds.len();
            let (synthesized, sample) = pace.time(|| scenario::synth_inputs(program_seeds[k]));
            inputs[k] = synthesized;
            setup_samples.push(sample);
        }
    }
    let _ = std::fs::remove_file(&trace_path);
    let times = pace.at_reference(&samples);
    let jobs_per_s: Vec<f64> = jobs.iter().zip(&times).map(|(n, t)| n / t).collect();
    out.metric("setup_s", median(&pace.at_reference(&setup_samples)), "s");
    out.metric("jobs_per_s", median(&jobs_per_s), "1/s");
    out.metric(
        "latency_p50_ms",
        median(&times.iter().map(|t| t * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    out.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0), "MB");
    out.samples("setup", setup_samples.len());
    out.samples("runs", times.len());
    out.samples("pace ticks", pace.ticks());
}

/// Counters of one split run.
struct SplitRun {
    report: SimReport,
    audit: Option<AuditReport>,
    plan_calls: u64,
    events: u64,
    loop_allocs: u64,
    report_allocs: u64,
    audit_allocs: u64,
}

/// The reference run split into its layer calls, each in a span under a
/// `run` root whose request id is `rep`.
fn run_split<S: Sink>(
    s: &Scenario<'_>,
    spans: &mut Spans,
    rep: u64,
    inner: S,
    finish: impl FnOnce(S) -> Result<(), String>,
) -> Result<SplitRun, String> {
    let mut policy = scenario::policy().build(s.queues);
    let mut timed = TimedScheduler::new(&mut policy);
    let mut sink = TimedSink::new(inner);
    let emitted = sink.stats();

    let root = spans.enter("run", rep);
    let forecaster = spans.time("carbon.forecast_build", rep, || {
        let f = PerfectForecaster::new(s.carbon);
        f.warm();
        f
    });
    let submit = spans.enter("sim.submit", rep);
    let mut engine = OnlineEngine::new(&s.config, s.carbon, &forecaster, &mut sink);
    engine.reserve_jobs(s.workload.len());
    let submitted: Result<(), String> = s
        .workload
        .jobs()
        .iter()
        .try_for_each(|job| engine.submit(*job).map(|_| ()).map_err(|e| e.to_string()));
    spans.exit(submit);
    let submit_emit = emitted.busy();
    spans.aggregate("obs.emit", submit, Duration::ZERO, submit_emit);

    let event_loop = spans.enter("sim.run_until_idle", rep);
    let (ran, loop_allocs) = alloc::count(|| {
        submitted.and_then(|()| engine.run_until_idle(&mut timed).map_err(|e| e.to_string()))
    });
    spans.exit(event_loop);
    spans.aggregate("core.plan", event_loop, Duration::ZERO, timed.busy);
    spans.aggregate(
        "obs.emit",
        event_loop,
        timed.busy,
        emitted.busy() - submit_emit,
    );

    let (report, report_allocs) =
        spans.time("sim.report", rep, || alloc::count(|| engine.into_report()));
    let (audit, audit_allocs) = if s.audited {
        let (audit, n) = spans.time("sim.audit", rep, || {
            alloc::count(|| audit_report_faulted(&report, &s.config, s.carbon, None))
        });
        (Some(audit), n)
    } else {
        (None, 0)
    };
    let events = emitted.events();
    let finished = spans.time("obs.finish", rep, || finish(sink.into_inner()));
    let summary = spans.time("metrics.summary", rep, || {
        Summary::of(scenario::policy().name(), &report)
    });
    spans.exit(root);
    std::hint::black_box(summary);
    ran?;
    finished?;
    Ok(SplitRun {
        report,
        audit,
        plan_calls: timed.calls,
        events,
        loop_allocs,
        report_allocs,
        audit_allocs,
    })
}

fn file_digest(path: &Path) -> Result<u64, String> {
    std::fs::read(path)
        .map(|bytes| gaia_sim::fnv1a(&bytes))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The traced pass: per-layer numbers for both run workloads.
pub fn traced(ctx: &Ctx, audited: bool, out: &mut Outcome) {
    let mut spans = Spans::default();
    let inputs = traced_setup(ctx.program_seed, &mut spans);
    let trace_path = ctx.work.join("run.jsonl");
    let split_path = ctx.work.join("split.jsonl");
    let s = Scenario::new(&inputs, ctx.program_seed, audited, &trace_path);
    let started = Instant::now();

    // Untraced and split runs alternate, so both see the same host
    // conditions. The first untraced run is the reference: the report
    // and trace bytes every split run must reproduce.
    let mut reference: Option<(SimReport, Option<u64>)> = None;
    let mut untraced = Vec::new();
    let mut split_runs = Vec::new();
    let mut rep = 0u64;
    while split_runs.len() < MIN_REPS || started.elapsed() < ctx.budget(0.85) {
        let (took, result) = run_untraced(&s);
        untraced.push(took.as_secs_f64());
        match result.and_then(|report| check_report(&s, &report).map(|()| report)) {
            Ok(report) => {
                out.op(Ok(()));
                if reference.is_none() {
                    match audited.then(|| file_digest(&trace_path)).transpose() {
                        Ok(bytes) => reference = Some((report, bytes)),
                        Err(e) => out.check(Err(e)),
                    }
                }
            }
            Err(e) => out.op(Err(e)),
        }
        let Some((reference, reference_trace)) = &reference else {
            if rep >= MIN_REPS as u64 {
                out.check(Err("no untraced reference run succeeded".into()));
                return;
            }
            rep += 1;
            continue;
        };
        let result = if audited {
            discard(&split_path);
            File::create(&split_path)
                .map_err(|e| format!("cannot create {}: {e}", split_path.display()))
                .and_then(|file| {
                    run_split(
                        &s,
                        &mut spans,
                        rep,
                        JsonlSink::new(BufWriter::new(file)),
                        |sink| sink.finish().map(|_| ()).map_err(|e| e.to_string()),
                    )
                })
        } else {
            run_split(&s, &mut spans, rep, NullSink, |_| Ok(()))
        };
        let checked = result.and_then(|run| {
            if run.report != *reference {
                return Err("split run report differs from the SimRunner report".into());
            }
            if audited {
                audit_clean(run.audit.as_ref())?;
                if *reference_trace != Some(file_digest(&split_path)?) {
                    return Err("split run trace bytes differ from the SimRunner trace".into());
                }
            }
            Ok(run)
        });
        match checked {
            Ok(run) => {
                out.op(Ok(()));
                split_runs.push(run);
            }
            Err(e) => out.op(Err(e)),
        }
        rep += 1;
    }
    let Some((reference, _)) = reference else {
        return;
    };
    let trace_bytes = std::fs::metadata(&split_path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&split_path);

    let cli_ms = cli_runs(ctx, audited, out);

    let med = |name: &str| median(&spans.self_ms_by_request(name));
    let roots = spans.durations_ms("run");
    let counts = |f: fn(&SplitRun) -> u64| -> f64 {
        median(&split_runs.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let plan_ms = med("core.plan");
    let plan_calls = counts(|r| r.plan_calls);
    out.metric(
        "carbon.synth_ms",
        median(&spans.durations_ms("carbon.synth")),
        "ms",
    );
    out.metric(
        "carbon.forecast_build_ms",
        med("carbon.forecast_build"),
        "ms",
    );
    out.metric(
        "workload.synth_ms",
        median(&spans.durations_ms("workload.synth")),
        "ms",
    );
    out.metric("workload.jobs", inputs.workload.len() as f64, "count");
    out.metric("core.plan_ms", plan_ms, "ms");
    out.metric("core.plan_calls", plan_calls, "count");
    out.metric(
        "core.plan_ns_per_call",
        per_call_ns(plan_ms, plan_calls),
        "ns",
    );
    out.metric("sim.submit_ms", med("sim.submit"), "ms");
    out.metric("sim.event_loop_self_ms", med("sim.run_until_idle"), "ms");
    out.metric("sim.report_ms", med("sim.report"), "ms");
    out.metric("sim.audit_ms", med("sim.audit"), "ms");
    out.metric(
        "sim.audit_checks",
        counts(|r| r.audit.as_ref().map_or(0, |a| a.checks_run as u64)),
        "count",
    );
    out.metric(
        "sim.segments",
        reference.jobs.iter().map(|j| j.segments.len() as f64).sum(),
        "count",
    );
    out.metric("sim.event_loop_allocs", counts(|r| r.loop_allocs), "count");
    out.metric("sim.report_allocs", counts(|r| r.report_allocs), "count");
    out.metric("sim.audit_allocs", counts(|r| r.audit_allocs), "count");
    out.metric("obs.emit_ms", med("obs.emit"), "ms");
    out.metric("obs.finish_ms", med("obs.finish"), "ms");
    out.metric("obs.events", counts(|r| r.events), "count");
    out.metric("obs.trace_bytes", trace_bytes as f64, "bytes");
    out.metric("metrics.summary_ms", med("metrics.summary"), "ms");
    out.metric("cli.run_process_ms", cli_ms, "ms");
    out.metric(
        "trace.overhead_ratio",
        median(&roots) / (median(&untraced) * 1e3),
        "ratio",
    );
    out.metric(
        "trace.coverage_ratio",
        median(&spans.coverage("run")),
        "ratio",
    );
    out.samples("untraced runs", untraced.len());
    out.samples("split runs", split_runs.len());
    ctx.write_spans(&spans, out);
}

/// Nanoseconds per call of `total_ms` spread over `calls`.
pub fn per_call_ns(total_ms: f64, calls: f64) -> f64 {
    if calls > 0.0 {
        total_ms * 1e6 / calls
    } else {
        0.0
    }
}

/// Wall time of the `gaia run` process on the reference scenario
/// (median of three), after one run whose `--details` output must carry
/// the recorded digest.
fn cli_runs(ctx: &Ctx, audited: bool, out: &mut Outcome) -> f64 {
    let details = ctx.work.join("cli_details.csv");
    let trace = ctx.work.join("cli.jsonl");
    let command = |with_details: bool| {
        let mut cmd = Command::new(&ctx.gaia);
        cmd.args(scenario::gaia_run_args(ctx.program_seed))
            .current_dir(&ctx.work)
            .env("GAIA_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if audited {
            cmd.arg("--audit").arg("--trace").arg(&trace);
        }
        if with_details {
            cmd.arg("--details").arg(&details);
        }
        cmd
    };
    let status = command(true).status();
    out.op(match status {
        Ok(s) if s.success() => std::fs::read(&details)
            .map_err(|e| format!("cannot read gaia run details: {e}"))
            .and_then(|bytes| {
                scenario::check_digest(DigestKind::Run, ctx.program_seed, gaia_sim::fnv1a(&bytes))
            }),
        Ok(s) => Err(format!("gaia run exited with {s}")),
        Err(e) => Err(format!("cannot start {}: {e}", ctx.gaia.display())),
    });
    let mut times = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let status = command(false).status();
        times.push(started.elapsed().as_secs_f64() * 1e3);
        out.op(match status {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("gaia run exited with {s}")),
            Err(e) => Err(format!("cannot start {}: {e}", ctx.gaia.display())),
        });
    }
    let _ = std::fs::remove_file(&details);
    let _ = std::fs::remove_file(&trace);
    median(&times)
}
