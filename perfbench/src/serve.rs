//! `serve-tcp`: a `gaia serve` daemon with default telemetry and flight
//! recorder, driven closed loop over loopback by two connections.
//!
//! The protocol is lockstep, and submissions must not arrive before the
//! service clock, so the connections move in rounds: in round `r` each
//! sends one request (a submit at minute `r * STEP_MIN`, or in every
//! tenth round a `query`/`stats` read), waits for its reply, and meets
//! the other at a barrier. Both requests of a round are in flight together.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use gaia_carbon::{synth::synthesize_region, PerfectForecaster, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_obs::{FlightRecorder, FlightSink, NullSink};
use gaia_serve::{Request, Response, ServeTelemetry, Session};
use gaia_sim::{ClusterConfig, OnlineEngine};

use crate::out::{peak_rss_mb, Outcome};
use crate::pace::Pace;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::Ctx;

/// Daemon spawns per run; `setup_s` is the median spawn-to-listening.
const SETUP_REPS: usize = 7;
/// Client connections (one per vCPU of the reference host).
const CONNECTIONS: usize = 2;
/// One request in this many is a read; the rest are submits.
const READ_EVERY: u64 = 10;
/// Sim minutes between rounds.
const STEP_MIN: u64 = 5;
/// The daemon's high-water RSS is read after this many rounds, so it
/// does not grow with the number of requests a faster daemon serves.
const RSS_ROUND: u64 = 100;
/// Round trips a run must time (p90 then has ≥ 10 samples beyond it).
const MIN_SAMPLES: usize = 100;
/// In-process replays of the recorded stream, with and without per-apply
/// timing each.
const REPLAYS: usize = 5;
const SPAWN_TIMEOUT: Duration = Duration::from_secs(60);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// SplitMix64: a seeded stream for request parameters.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const TENANTS: [&str; 2] = ["acme", "globex"];

/// The request a connection sends in `round`: a submit, except every
/// `READ_EVERY`-th round, which sends a `query` or `stats` read.
fn next_request(rng: &mut Rng, round: u64, known_jobs: &[u64]) -> Request {
    if round % READ_EVERY != READ_EVERY - 1 {
        return Request::Submit {
            tenant: TENANTS[rng.below(2) as usize].to_string(),
            at: round * STEP_MIN,
            len: 5 + rng.below(240),
            cpus: 1 + rng.below(4),
        };
    }
    match rng.below(3) {
        0 if !known_jobs.is_empty() => Request::Query {
            job: known_jobs[rng.below(known_jobs.len() as u64) as usize],
        },
        1 => Request::Stats {
            tenant: Some(TENANTS[rng.below(2) as usize].to_string()),
        },
        _ => Request::Stats { tenant: None },
    }
}

/// The `u64` value of `"key":N` in a response line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let rest = &line[line.find(&pattern)? + pattern.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A running daemon.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `gaia serve` and waits until it writes its address.
    fn spawn(ctx: &Ctx, dir: &Path) -> Result<(Daemon, Duration), String> {
        let addr_file = dir.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let started = Instant::now();
        let mut child = Command::new(&ctx.gaia)
            .arg("serve")
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--seed")
            .arg(ctx.program_seed.to_string())
            .arg("--flight-dump")
            .arg(dir.join("flight.jsonl"))
            .arg("--snapshot-path")
            .arg(dir.join("serve.snap"))
            .current_dir(dir)
            .env("GAIA_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", ctx.gaia.display()))?;
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Some(addr) = text.strip_suffix('\n') {
                    let took = started.elapsed();
                    let addr = addr.to_string();
                    return Ok((Daemon { child, addr }, took));
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("gaia serve exited early with {status}"));
            }
            if started.elapsed() > SPAWN_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("gaia serve did not start listening".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends one request on a fresh connection and returns the reply.
    fn ask(&self, request: &Request) -> Result<String, String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.round_trip(request).map(|(line, _)| line)
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = self.ask(&Request::Shutdown);
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked.map(|_| ()),
                Ok(Some(status)) => return Err(format!("gaia serve exited with {status}")),
                Ok(None) if started.elapsed() < EXIT_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("gaia serve did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for Daemon {
    /// Stops a daemon that was not shut down cleanly (a failed check
    /// part-way through a run), so no process outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection: a request goes out as a single write.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Sends `request`, reads its reply line, and times the round trip.
    fn round_trip(&mut self, request: &Request) -> Result<(String, Duration), String> {
        let mut bytes = request.to_json_line();
        bytes.push('\n');
        self.line.clear();
        let started = Instant::now();
        self.writer
            .write_all(bytes.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        let took = started.elapsed();
        if !self.line.ends_with('\n') {
            return Err("connection closed mid-reply".into());
        }
        Ok((self.line.trim_end().to_string(), took))
    }
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    /// `(round, request)` in send order.
    requests: Vec<(u64, Request)>,
    rtt_us: Vec<f64>,
    acked_submits: u64,
    errors: Vec<String>,
}

/// Drives the daemon until `deadline`; returns the per-connection logs,
/// the rounds completed, the loop's wall time, and the daemon's
/// high-water RSS.
fn drive(
    ctx: &Ctx,
    daemon: &Daemon,
    budget: Duration,
) -> (Vec<ConnLog>, u64, Duration, Option<f64>) {
    let barrier = Barrier::new(CONNECTIONS);
    let stop = AtomicBool::new(false);
    let rss = std::sync::Mutex::new(None);
    let pid = daemon.pid();
    let started = Instant::now();
    let logs: Vec<(ConnLog, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|c| {
                let (barrier, stop, rss, pid) = (&barrier, &stop, &rss, &pid);
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut rng = Rng(ctx.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ c);
                    let mut conn = Conn::open(&daemon.addr);
                    let mut known = Vec::new();
                    let mut round = 0u64;
                    loop {
                        // The leader decides, then both see the decision.
                        if barrier.wait().is_leader() && started.elapsed() >= budget {
                            stop.store(true, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if c == 0 && round == RSS_ROUND {
                            *rss.lock().expect("rss lock poisoned") = peak_rss_mb(pid);
                        }
                        let request = next_request(&mut rng, round, &known);
                        let reply = match conn.as_mut() {
                            Ok(conn) => conn.round_trip(&request),
                            Err(e) => Err(e.clone()),
                        };
                        match reply {
                            Ok((line, took)) => {
                                log.rtt_us.push(took.as_secs_f64() * 1e6);
                                if !line.starts_with("{\"ok\":true") {
                                    log.errors.push(format!("{}: {line}", request.op_name()));
                                } else if matches!(request, Request::Submit { .. }) {
                                    log.acked_submits += 1;
                                    known.extend(field_u64(&line, "job"));
                                }
                            }
                            Err(e) => {
                                log.errors.push(e);
                                // Without a connection the round loop
                                // keeps both threads in step until stop.
                                conn = Err("connection lost".into());
                            }
                        }
                        log.requests.push((round, request));
                        round += 1;
                    }
                    (log, round)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let rounds = logs.iter().map(|(_, r)| *r).min().unwrap_or(0);
    let mut rss = rss.into_inner().expect("rss lock poisoned");
    if rss.is_none() {
        rss = peak_rss_mb(&pid);
    }
    (
        logs.into_iter().map(|(l, _)| l).collect(),
        rounds,
        wall,
        rss,
    )
}

/// Counts every request as an op and cross-checks the daemon's own
/// submit count.
fn check_traffic(daemon: &Daemon, logs: &[ConnLog], out: &mut Outcome) {
    let mut errors = logs.iter().flat_map(|l| l.errors.iter());
    for log in logs {
        for _ in 0..log.requests.len() {
            out.op(match errors.next() {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            });
        }
    }
    let acked: u64 = logs.iter().map(|l| l.acked_submits).sum();
    out.check(
        daemon
            .ask(&Request::Stats { tenant: None })
            .and_then(|line| match field_u64(&line, "submitted") {
                Some(n) if n == acked => Ok(()),
                Some(n) => Err(format!("daemon counted {n} submits, clients sent {acked}")),
                None => Err(format!("bad stats reply: {line}")),
            }),
    );
    let samples: usize = logs.iter().map(|l| l.rtt_us.len()).sum();
    if samples < MIN_SAMPLES {
        out.check(Err(format!(
            "only {samples} round trips timed, need {MIN_SAMPLES}"
        )));
    }
}

/// Spawns `SETUP_REPS` daemons, shutting all but the last down.
/// Returns the last daemon and the spawn times at reference pace
/// (`pace.rs`), each spawn sitting between two kernel ticks.
fn setup(ctx: &Ctx, dir: &Path, out: &mut Outcome) -> Option<(Daemon, Vec<f64>)> {
    let mut pace = Pace::start();
    let mut samples = Vec::new();
    for rep in 0..SETUP_REPS {
        match Daemon::spawn(ctx, dir) {
            Ok((daemon, took)) => {
                samples.push(pace.record(took));
                if rep + 1 == SETUP_REPS {
                    return Some((daemon, pace.at_reference(&samples)));
                }
                out.check(daemon.shutdown());
            }
            Err(e) => {
                out.check(Err(e));
                return None;
            }
        }
    }
    None
}

fn serve_dir(ctx: &Ctx) -> PathBuf {
    let dir = ctx.work.join("serve");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// The end-to-end pass.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let dir = serve_dir(ctx);
    let Some((daemon, setup_times)) = setup(ctx, &dir, out) else {
        return;
    };
    let (logs, _, wall, rss) = drive(ctx, &daemon, ctx.budget(1.0));
    check_traffic(&daemon, &logs, out);
    out.check(daemon.shutdown());
    let rtt: Vec<f64> = logs.iter().flat_map(|l| l.rtt_us.iter().copied()).collect();
    let acked: u64 = logs.iter().map(|l| l.acked_submits).sum();
    out.metric("setup_s", median(&setup_times), "s");
    out.metric("jobs_per_s", acked as f64 / wall.as_secs_f64(), "1/s");
    out.metric("latency_p50_ms", median(&rtt) / 1e3, "ms");
    out.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    out.samples("setup", setup_times.len());
    out.samples("round trips", rtt.len());
}

/// Replays `requests` through an in-process session built as the daemon
/// builds its own; returns per-apply µs (when `time_each`), the total
/// wall time, the errors, and the snapshot size.
fn replay(
    ctx: &Ctx,
    requests: &[Request],
    time_each: bool,
    mut spans: Option<&mut Spans>,
) -> (Vec<f64>, Duration, Vec<String>, usize) {
    let mut time = |name: &'static str, f: &mut dyn FnMut()| match spans.as_deref_mut() {
        Some(spans) => spans.time(name, 0, f),
        None => f(),
    };
    let mut carbon = None;
    time("carbon.synth", &mut || {
        carbon = Some(synthesize_region(Region::SouthAustralia, ctx.program_seed));
    });
    let carbon = carbon.expect("synthesized");
    let mut forecaster = None;
    time("carbon.forecast_build", &mut || {
        let f = PerfectForecaster::new(&carbon);
        f.warm();
        forecaster = Some(f);
    });
    let forecaster = forecaster.expect("built");
    let config = ClusterConfig::default()
        .with_reserved(0)
        .with_seed(ctx.program_seed);
    let recorder = FlightRecorder::new(4096);
    let mut sink = FlightSink::new(Arc::clone(&recorder), NullSink);
    let engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
    let mut session = Session::new(engine, PolicySpec::plain(BasePolicyKind::CarbonTime));
    session.attach_telemetry(Arc::new(ServeTelemetry::new()));

    let mut apply_us = Vec::with_capacity(if time_each { requests.len() } else { 0 });
    let mut errors = Vec::new();
    let started = Instant::now();
    for request in requests {
        let response = if time_each {
            let t = Instant::now();
            let response = session.apply(request);
            apply_us.push(t.elapsed().as_secs_f64() * 1e6);
            response
        } else {
            session.apply(request)
        };
        session.sync_sink();
        if let Response::Error { error } = response {
            errors.push(format!("in-process {}: {error}", request.op_name()));
        }
    }
    let total = started.elapsed();
    let mut snapshot = 0;
    time("serve.snapshot", &mut || {
        snapshot = session.snapshot().1.len()
    });
    (apply_us, total, errors, snapshot)
}

/// The traced pass.
pub fn traced(ctx: &Ctx, out: &mut Outcome) {
    let dir = serve_dir(ctx);
    let Some((daemon, _)) = setup(ctx, &dir, out) else {
        return;
    };
    let (logs, rounds, wall, _) = drive(ctx, &daemon, ctx.budget(0.6));
    check_traffic(&daemon, &logs, out);
    out.check(daemon.shutdown());
    let rtt: Vec<f64> = logs.iter().flat_map(|l| l.rtt_us.iter().copied()).collect();
    let wire_errors: usize = logs.iter().map(|l| l.errors.len()).sum();

    // The same stream, round by round, connection 0 first: every submit
    // of a round shares its `at`, so any order within a round is valid.
    let mut stream = Vec::new();
    for round in 0..rounds {
        for log in &logs {
            stream.extend(
                log.requests
                    .iter()
                    .filter(|(r, _)| *r == round)
                    .map(|(_, q)| q.clone()),
            );
        }
    }
    // Alternate plain and per-apply-timed replays; their median totals
    // give trace.overhead_ratio.
    let mut spans = Spans::default();
    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    let mut apply_us = Vec::new();
    let mut snapshot_bytes = 0;
    let mut errors = Vec::new();
    for rep in 0..REPLAYS {
        let (_, total, errs, _) = replay(ctx, &stream, false, None);
        plain.push(total.as_secs_f64());
        errors.extend(errs);
        let first = rep == 0;
        let (us, total, errs, bytes) = replay(ctx, &stream, true, first.then_some(&mut spans));
        timed.push(total.as_secs_f64());
        errors.extend(errs);
        if first {
            apply_us = us;
            snapshot_bytes = bytes;
        }
    }
    for e in &errors {
        out.op(Err(e.clone()));
    }
    out.attempted += (2 * REPLAYS * stream.len() - errors.len()) as u64;

    let rtt_p50 = median(&rtt);
    let apply_p50 = median(&apply_us);
    out.metric(
        "carbon.synth_ms",
        median(&spans.durations_ms("carbon.synth")),
        "ms",
    );
    out.metric(
        "carbon.forecast_build_ms",
        median(&spans.durations_ms("carbon.forecast_build")),
        "ms",
    );
    out.metric("serve.apply_us_p50", apply_p50, "us");
    out.metric(
        "serve.apply_us_p90",
        percentile(&apply_us, 90.0).unwrap_or(0.0),
        "us",
    );
    out.metric("serve.wire_us_p50", rtt_p50 - apply_p50, "us");
    out.metric("serve.rtt_us_p50", rtt_p50, "us");
    out.metric(
        "serve.rtt_us_p90",
        percentile(&rtt, 90.0).unwrap_or(0.0),
        "us",
    );
    out.metric(
        "serve.req_per_s",
        rtt.len() as f64 / wall.as_secs_f64(),
        "1/s",
    );
    out.metric(
        "serve.snapshot_ms",
        median(&spans.durations_ms("serve.snapshot")),
        "ms",
    );
    out.metric("serve.snapshot_bytes", snapshot_bytes as f64, "bytes");
    out.metric("serve.errors", (wire_errors + errors.len()) as f64, "count");
    out.metric(
        "trace.overhead_ratio",
        median(&timed) / median(&plain),
        "ratio",
    );
    out.samples("round trips", rtt.len());
    out.samples("applies", apply_us.len());
    ctx.write_spans(&spans, out);
}
