//! `sweep-grid`: the 24-cell reference grid (nowait, lowest-window,
//! carbon-time, carbon-scale × SA-AU, CA-US, ON-CA × two seeds) at year
//! scale with 20k jobs per cell, audited, through `SweepRunner`.
//!
//! Each cold leg runs over a fresh trace cache and a fresh on-disk
//! result cache (every cell simulated and persisted); warm legs replay
//! the same grid from that result cache until they are long enough to
//! time.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_metrics::Summary;
use gaia_sim::Simulation;
use gaia_sweep::store::scenarios_csv;
use gaia_sweep::{run_cell, CellOutcome, Executor, Region, SweepGrid, SweepRun, TraceCache};

use crate::out::{peak_rss_mb, Outcome};
use crate::pace::{Pace, Sample};
use crate::runyear::per_call_ns;
use crate::scenario::{self, DigestKind};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::wrap::TimedScheduler;
use crate::Ctx;

/// Grid input materializations before the first cycle. `setup_s` is the
/// median of these and of one more after every cycle, so its samples
/// spread over the whole measuring time.
const SETUP_REPS: usize = 3;
/// Cold legs per run at the least.
const MIN_COLD: usize = 3;
/// Warm replays per cold leg at the least, and the least warm time.
const MIN_WARM: usize = 3;
const MIN_WARM_TIME: Duration = Duration::from_millis(300);
/// Cold and warm cycles in the traced pass.
const TRACED_CYCLES: usize = 3;

/// The reference grid for a program seed (seeds `s` and `s + 1`).
pub fn grid(program_seed: u64) -> SweepGrid {
    let policies = ["nowait", "lowest-window", "carbon-time", "carbon-scale"]
        .iter()
        .map(|name| PolicySpec::plain(BasePolicyKind::parse(name).expect("catalog policy")))
        .collect();
    SweepGrid::year(scenario::SWEEP_JOBS, 368)
        .policies(policies)
        .regions(vec![
            Region::SouthAustralia,
            Region::California,
            Region::Ontario,
        ])
        .seeds(vec![program_seed, program_seed + 1])
}

/// Materializes every input of the grid through `cache`, timing carbon
/// and workload synthesis as separate spans when `spans` is given.
fn materialize(grid: &SweepGrid, cache: &TraceCache, mut spans: Option<&mut Spans>, rep: u64) {
    for s in grid.scenarios() {
        match spans.as_deref_mut() {
            Some(spans) => {
                spans.time("carbon.synth", rep, || cache.carbon(s.region, s.seed));
                spans.time("workload.synth", rep, || {
                    cache.workload(s.family, s.scale, s.seed)
                });
            }
            None => {
                cache.carbon(s.region, s.seed);
                cache.workload(s.family, s.scale, s.seed);
            }
        }
    }
}

/// A leg that has not returned after this long counts as failed.
const STALL: Duration = Duration::from_secs(30);

type Leg = (Duration, Result<SweepRun, String>);

/// Runs sweep legs (one `SweepRunner::execute` over the grid and its
/// result cache each) on a helper thread, so a leg that never returns
/// fails its cells instead of hanging the benchmark. The sweep executor's
/// channel can lose the wakeup for its last worker's exit (NOTES.md),
/// which blocks the caller for good; the stuck helper is then abandoned
/// and a fresh one takes the next leg.
struct Legs {
    grid: SweepGrid,
    dir: PathBuf,
    workers: usize,
    helper: Option<(mpsc::Sender<()>, mpsc::Receiver<Leg>, JoinHandle<()>)>,
}

impl Legs {
    fn new(ctx: &Ctx, grid: &SweepGrid) -> Legs {
        Legs {
            grid: grid.clone(),
            dir: ctx.work.join("result-cache"),
            workers: ctx.workers,
            helper: None,
        }
    }

    /// One leg over the result cache; cold when it is empty. The time
    /// covers `execute` alone.
    fn run(&mut self) -> Leg {
        let (grid, dir, workers) = (&self.grid, &self.dir, self.workers);
        let (requests, results, _) = self.helper.get_or_insert_with(|| {
            let (request_tx, request_rx) = mpsc::channel::<()>();
            let (result_tx, result_rx) = mpsc::channel();
            let (grid, dir) = (grid.clone(), dir.clone());
            let handle = std::thread::spawn(move || {
                let executor = Executor::new(workers).with_progress(false);
                while request_rx.recv().is_ok() {
                    let runner = grid.runner().executor(&executor).audit(true).resume(&dir);
                    let started = Instant::now();
                    let run = runner.execute().map_err(|e| format!("sweep: {e}"));
                    if result_tx.send((started.elapsed(), run)).is_err() {
                        return;
                    }
                }
            });
            (request_tx, result_rx, handle)
        });
        let reply = requests
            .send(())
            .map_err(|_| "sweep helper thread is gone".to_string())
            .and_then(|()| {
                results.recv_timeout(STALL).map_err(|e| match e {
                    mpsc::RecvTimeoutError::Timeout => {
                        format!("sweep leg did not return within {} s", STALL.as_secs())
                    }
                    mpsc::RecvTimeoutError::Disconnected => "sweep helper thread panicked".into(),
                })
            });
        reply.unwrap_or_else(|e| {
            // A stalled helper cannot be joined; a panicked one is.
            if let Some((_, _, handle)) = self.helper.take() {
                if handle.is_finished() {
                    let _ = handle.join();
                }
            }
            (STALL, Err(e))
        })
    }

    /// Stops the helper and removes the result cache.
    fn finish(mut self) {
        if let Some((requests, _, handle)) = self.helper.take() {
            drop(requests);
            let _ = handle.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Counts every cell of a leg that failed outright as a failed op.
fn fail_leg(out: &mut Outcome, cells: usize, error: String) {
    out.attempted += cells as u64;
    out.failed += cells as u64;
    out.check(Err(error));
}

/// Counts one op per cell: completed and audit clean.
fn check_cells(run: &SweepRun, out: &mut Outcome) {
    for cell in &run.results {
        out.op(match (cell.summary(), cell.audit()) {
            (Some(_), Some(audit)) if audit.is_clean() => Ok(()),
            (Some(_), Some(audit)) => Err(format!(
                "cell {}: {} audit violation(s)",
                cell.key,
                audit.violations.len()
            )),
            (Some(_), None) => Err(format!("cell {}: audit did not run", cell.key)),
            (None, _) => Err(format!(
                "cell {}: {}",
                cell.key,
                cell.error().unwrap_or("failed")
            )),
        });
    }
}

/// Disk-cache counters of a leg must show all misses (cold) or all hits
/// (warm).
fn check_disk(run: &SweepRun, cold: bool) -> Result<(), String> {
    let cells = run.results.len() as u64;
    let stats = run.disk_cache.ok_or("sweep ran without its result cache")?;
    let expected = if cold {
        (0, cells, cells)
    } else {
        (cells, 0, 0)
    };
    if (stats.hits, stats.misses, stats.persists) == expected {
        Ok(())
    } else {
        Err(format!(
            "{} leg: result cache hits/misses/persists {}/{}/{}, expected {expected:?}",
            if cold { "cold" } else { "warm" },
            stats.hits,
            stats.misses,
            stats.persists
        ))
    }
}

/// A cold leg followed by warm replays over one fresh cache directory.
/// Returns the cold sample and the warm samples, or `None` if the cold
/// leg failed outright. The cold leg sits between two kernel ticks, and
/// so do the warm replays together.
fn cycle(
    ctx: &Ctx,
    legs: &mut Legs,
    pace: &mut Pace,
    out: &mut Outcome,
) -> Option<(Sample, Vec<Sample>, SweepRun)> {
    let cells = legs.grid.len();
    let _ = std::fs::remove_dir_all(&legs.dir);
    let (cold_time, cold) = legs.run();
    let cold_sample = pace.record(cold_time);
    let cold = match cold {
        Ok(run) => run,
        Err(e) => {
            fail_leg(out, cells, e);
            return None;
        }
    };
    check_cells(&cold, out);
    out.check(check_disk(&cold, true));
    let csv = scenarios_csv(&cold);
    out.check(scenario::check_digest(
        DigestKind::Sweep,
        ctx.program_seed,
        gaia_sim::fnv1a(csv.as_bytes()),
    ));
    let mut warm_samples = Vec::new();
    let mut warm_total = Duration::ZERO;
    while warm_samples.len() < MIN_WARM || warm_total < MIN_WARM_TIME {
        let (took, warm) = legs.run();
        match warm {
            Ok(run) => {
                check_cells(&run, out);
                out.check(check_disk(&run, false));
                if scenarios_csv(&run) != csv {
                    out.check(Err("warm scenarios.csv differs from the cold one".into()));
                }
            }
            Err(e) => {
                fail_leg(out, cells, e);
                return None;
            }
        }
        warm_total += took;
        warm_samples.push(pace.sample(took));
    }
    pace.tick();
    Some((cold_sample, warm_samples, cold))
}

/// Builds the grid and materializes its inputs once; returns seconds.
fn setup(program_seed: u64) -> f64 {
    let started = Instant::now();
    let grid = grid(program_seed);
    let cache = TraceCache::new();
    materialize(&grid, &cache, None, 0);
    std::hint::black_box(&cache);
    started.elapsed().as_secs_f64()
}

/// The end-to-end pass. Times are reported at reference pace
/// (`pace.rs`).
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut pace = Pace::start();
    let mut setup_samples: Vec<Sample> = (0..SETUP_REPS)
        .map(|_| pace.time(|| setup(ctx.program_seed)).1)
        .collect();
    let grid = grid(ctx.program_seed);
    let jobs = (grid.len() * scenario::SWEEP_JOBS) as f64;
    let mut legs = Legs::new(ctx, &grid);
    let started = Instant::now();
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut rss = None;
    while cold.len() < MIN_COLD || started.elapsed() < ctx.budget(1.0) {
        let Some((cold_sample, warm_samples, _)) = cycle(ctx, &mut legs, &mut pace, out) else {
            break;
        };
        cold.push(cold_sample);
        warm.extend(warm_samples);
        // The high-water mark after one cold and warm cycle: later cycles
        // only add allocator fragmentation, not work.
        rss = rss.or_else(|| peak_rss_mb("self"));
        setup_samples.push(pace.time(|| setup(ctx.program_seed)).1);
    }
    legs.finish();
    let cold = pace.at_reference(&cold);
    let warm = pace.at_reference(&warm);
    out.metric("setup_s", median(&pace.at_reference(&setup_samples)), "s");
    out.metric(
        "jobs_per_s",
        median(&cold.iter().map(|t| jobs / t).collect::<Vec<_>>()),
        "1/s",
    );
    out.metric(
        "latency_p50_ms",
        median(&warm.iter().map(|t| t * 1e3).collect::<Vec<_>>()),
        "ms",
    );
    out.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    out.samples("setup", setup_samples.len());
    out.samples("cold legs", cold.len());
    out.samples("warm replays", warm.len());
    out.samples("pace ticks", pace.ticks());
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The traced pass.
pub fn traced(ctx: &Ctx, out: &mut Outcome) {
    let mut spans = Spans::default();
    let grid = grid(ctx.program_seed);
    let cache = TraceCache::new();
    materialize(&grid, &cache, Some(&mut spans), 0);

    // Every cell once through `run_cell`, and once split with a timing
    // scheduler whose summary must match.
    let mut cell_ms = Vec::new();
    let mut plan_calls = 0u64;
    for (idx, s) in grid.scenarios().iter().enumerate() {
        let idx = idx as u64;
        let outcome = spans.time("sweep.cell", idx, || run_cell(s, &cache, true));
        cell_ms.push(
            spans
                .durations_ms("sweep.cell")
                .last()
                .copied()
                .unwrap_or(0.0),
        );
        let carbon = cache.carbon(s.region, s.seed);
        let workload = cache.workload(s.family, s.scale, s.seed);
        let mut policy = s.policy.build(s.queues.build(&workload));
        let mut timed = TimedScheduler::new(&mut policy);
        let split = spans.enter("sweep.cell_split", idx);
        let run = Simulation::new(s.cluster.build(s.seed), &carbon)
            .runner(&workload, &mut timed)
            .audit(true)
            .execute();
        spans.exit(split);
        spans.aggregate("core.plan", split, Duration::ZERO, timed.busy);
        plan_calls += timed.calls;
        let summary = match &outcome {
            CellOutcome::Completed { summary, .. } => Some(summary),
            _ => None,
        };
        out.op(match (summary, run) {
            (Some(summary), Ok(run)) => {
                if *summary == Summary::of(s.policy.name(), &run.report) {
                    Ok(())
                } else {
                    Err(format!(
                        "cell {}: split summary differs from run_cell",
                        s.key()
                    ))
                }
            }
            (None, _) => Err(format!("cell {}: run_cell failed", s.key())),
            (_, Err(e)) => Err(format!("cell {}: {e}", s.key())),
        });
    }

    // Plain cycles: cold-leg time for the parallel efficiency (serial cell
    // time over wall × workers) and the warm replay rate.
    let mut legs = Legs::new(ctx, &grid);
    let (mut cold, mut warm_ms) = (Vec::new(), Vec::new());
    let mut cold_run = None;
    let mut pace = Pace::start();
    for _ in 0..TRACED_CYCLES {
        if let Some((cold_sample, warm, run)) = cycle(ctx, &mut legs, &mut pace, out) {
            cold.push(cold_sample.secs());
            warm_ms.extend(warm.iter().map(|s| s.secs() * 1e3));
            cold_run = Some(run);
        }
    }
    let cache_bytes = dir_bytes(&legs.dir);
    legs.finish();
    let Some(cold_run) = cold_run else {
        return;
    };
    let cells = grid.len() as f64;
    let split_ms = spans.durations_ms("sweep.cell_split");
    let overhead: Vec<f64> = split_ms.iter().zip(&cell_ms).map(|(t, u)| t / u).collect();
    let disk = cold_run.disk_cache.unwrap_or_default();
    let plan_ms: f64 = spans.durations_ms("core.plan").iter().sum();
    out.metric(
        "carbon.synth_ms",
        spans.durations_ms("carbon.synth").iter().sum(),
        "ms",
    );
    out.metric(
        "workload.synth_ms",
        spans.durations_ms("workload.synth").iter().sum(),
        "ms",
    );
    out.metric("workload.jobs", (2 * scenario::SWEEP_JOBS) as f64, "count");
    out.metric("core.plan_ms", plan_ms, "ms");
    out.metric("core.plan_calls", plan_calls as f64, "count");
    out.metric(
        "core.plan_ns_per_call",
        per_call_ns(plan_ms, plan_calls as f64),
        "ns",
    );
    out.metric("sweep.cell_ms_p50", median(&cell_ms), "ms");
    out.metric(
        "sweep.cell_ms_max",
        percentile(&cell_ms, 100.0).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "sweep.parallel_efficiency",
        cell_ms.iter().sum::<f64>() / (median(&cold) * 1e3 * ctx.workers as f64),
        "ratio",
    );
    // Cache counters are per leg: every warm replay was checked to hit
    // on every cell, and the cold leg to miss and persist every cell.
    out.metric("sweep.cache_hits", cells, "count");
    out.metric("sweep.cache_misses", disk.misses as f64, "count");
    out.metric("sweep.cache_persists", disk.persists as f64, "count");
    out.metric(
        "sweep.trace_cache_hits",
        cold_run.cache_stats.hits as f64,
        "count",
    );
    out.metric(
        "sweep.trace_cache_misses",
        cold_run.cache_stats.misses as f64,
        "count",
    );
    out.metric("sweep.cache_bytes", cache_bytes as f64, "bytes");
    out.metric("sweep.cold_cells_per_s", cells / median(&cold), "1/s");
    out.metric(
        "sweep.replay_cells_per_s",
        cells * 1e3 / median(&warm_ms),
        "1/s",
    );
    out.metric("trace.overhead_ratio", median(&overhead), "ratio");
    out.samples("cells", cell_ms.len());
    out.samples("warm replays", warm_ms.len());
    ctx.write_spans(&spans, out);
}
