//! End-to-end tests of the `gaia` binary.

use std::process::Command;

fn gaia() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gaia"))
}

fn run_ok(args: &[&str]) -> String {
    let output = gaia().args(args).output().expect("binary runs");
    assert!(
        output.status.success(),
        "gaia {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

#[test]
fn help_prints_usage() {
    let out = run_ok(&["--help"]);
    assert!(out.contains("USAGE"));
    assert!(out.contains("--policy"));
    assert!(out.contains("--res-first"));
}

#[test]
fn default_run_prints_summary_table() {
    let out = run_ok(&["--trace", "section3", "--seed", "1"]);
    assert!(out.contains("Carbon-Time"));
    assert!(out.contains("carbon (kg)"));
    assert!(out.contains("cost ($)"));
}

#[test]
fn baseline_flag_adds_relative_metrics() {
    let out = run_ok(&["--trace", "section3", "--baseline", "--seed", "1"]);
    assert!(out.contains("NoWait"));
    assert!(out.contains("relative to NoWait"));
}

#[test]
fn artifact_examples_from_appendix_a5() {
    // Example 1: carbon- and cost-agnostic.
    let out = run_ok(&[
        "--trace",
        "section3",
        "--scheduling-policy",
        "cost",
        "-w",
        "0x0",
    ]);
    assert!(out.contains("NoWait"));
    // Example 2: lowest carbon window with 6x24 waits.
    let out = run_ok(&[
        "--trace",
        "section3",
        "--scheduling-policy",
        "carbon",
        "-w",
        "6x24",
    ]);
    assert!(out.contains("Lowest-Window"));
}

#[test]
fn composed_policy_names_appear() {
    let out = run_ok(&[
        "--trace",
        "section3",
        "--policy",
        "carbon-time",
        "--res-first",
        "--spot",
        "2",
        "--reserved",
        "3",
        "--seed",
        "1",
    ]);
    assert!(out.contains("Spot-RES-Carbon-Time"));
}

#[test]
fn csv_output_and_details_file() {
    let details = std::env::temp_dir().join("gaia_cli_test_details.csv");
    let details_path = details.to_str().expect("utf-8 temp path");
    let out = run_ok(&[
        "--trace",
        "section3",
        "--csv",
        "--details",
        details_path,
        "--seed",
        "1",
    ]);
    assert!(out.starts_with("policy,"));
    let contents = std::fs::read_to_string(&details).expect("details written");
    assert!(contents.starts_with("job_id,arrival_min"));
    assert!(contents.lines().count() > 10);
    std::fs::remove_file(&details).ok();
}

#[test]
fn extension_policies_run() {
    let out = run_ok(&[
        "--trace",
        "section3",
        "--policy",
        "carbon-time-sr",
        "--baseline",
    ]);
    assert!(out.contains("Carbon-Time-SR"));
    let out = run_ok(&[
        "--trace",
        "section3",
        "--policy",
        "carbon-tax",
        "--tax",
        "2.0",
        "--delay-value",
        "0.1",
        "--baseline",
    ]);
    assert!(out.contains("Carbon-Tax"));
}

#[test]
fn checkpoint_and_overhead_flags_run() {
    let out = run_ok(&[
        "--trace",
        "section3",
        "--policy",
        "lowest-window",
        "--spot",
        "24",
        "--eviction",
        "0.2",
        "--checkpoint",
        "1x5",
        "--overheads",
        "2x1",
        "--baseline",
        "--seed",
        "1",
    ]);
    assert!(out.contains("Spot-First-Lowest-Window"));
    // With a 20% hourly eviction rate and 4-hour mean jobs on spot, some
    // evictions are near-certain in this trace.
    let evictions: u64 = out
        .lines()
        .find(|l| l.starts_with("Spot-First"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .expect("evictions column");
    assert!(evictions > 0, "expected evictions in output:\n{out}");
}

#[test]
fn artifact_output_files_are_written() {
    let dir = std::env::temp_dir();
    let agg = dir.join("gaia_cli_test_aggregate.csv");
    let runtime = dir.join("gaia_cli_test_runtime.csv");
    run_ok(&[
        "--trace",
        "section3",
        "--seed",
        "1",
        "--aggregate",
        agg.to_str().expect("utf-8"),
        "--runtime",
        runtime.to_str().expect("utf-8"),
    ]);
    let agg_text = std::fs::read_to_string(&agg).expect("aggregate written");
    assert!(agg_text.starts_with("jobs,carbon_g"));
    assert_eq!(agg_text.lines().count(), 2);
    let runtime_text = std::fs::read_to_string(&runtime).expect("runtime written");
    assert!(runtime_text.starts_with("hour,reserved_cpus"));
    assert!(runtime_text.lines().count() > 24);
    std::fs::remove_file(&agg).ok();
    std::fs::remove_file(&runtime).ok();
}

#[test]
fn rejects_unknown_flags_with_failure_exit() {
    let output = gaia().arg("--frobnicate").output().expect("binary runs");
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(1));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("unknown flag"));
}

#[test]
fn audit_flag_passes_on_a_clean_run() {
    let output = gaia()
        .args(["--trace", "section3", "--seed", "1", "--audit"])
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "clean run audits clean: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("no violations"), "stderr: {err}");
}

#[test]
fn bad_plan_policy_exits_with_a_typed_error_not_an_abort() {
    let output = gaia()
        .args(["--trace", "section3", "--seed", "1", "--policy", "badplan"])
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(1),
        "typed simulation errors exit 1, not a panic abort"
    );
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("invalid policy decision"), "stderr: {err}");
    assert!(!err.contains("panicked"), "no panic backtrace: {err}");
}

#[test]
fn sweep_with_bad_plan_cell_exits_two_and_keeps_healthy_cells() {
    let dir = std::env::temp_dir().join("gaia_cli_test_sweep_badplan");
    let output = gaia()
        .args([
            "sweep",
            "--policies",
            "badplan,nowait",
            "--seeds",
            "1",
            "--workers",
            "2",
            "--no-progress",
            "--out",
            dir.to_str().expect("utf-8"),
            "--name",
            "badplan",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(2),
        "a failed cell maps to exit 2: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("failed"), "stderr names the failure: {err}");
    let csv = std::fs::read_to_string(dir.join("badplan/scenarios.csv")).expect("csv written");
    assert!(csv.contains("ok"), "the healthy cell still completes");
    assert!(csv.contains("failed: invalid policy decision"));
    let manifest =
        std::fs::read_to_string(dir.join("badplan/manifest.json")).expect("manifest written");
    assert!(manifest.contains("\"failed_cells\": 1"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_audits_clean_by_default() {
    let dir = std::env::temp_dir().join("gaia_cli_test_sweep_clean");
    let output = gaia()
        .args([
            "sweep",
            "--policies",
            "nowait,carbon-time",
            "--seeds",
            "1",
            "--workers",
            "2",
            "--no-progress",
            "--out",
            dir.to_str().expect("utf-8"),
            "--name",
            "clean",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        output.status.code(),
        Some(0),
        "reference policies audit clean: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("cells clean"), "stderr: {err}");
    let manifest =
        std::fs::read_to_string(dir.join("clean/manifest.json")).expect("manifest written");
    assert!(manifest.contains("\"audit\": {\"enabled\": true, \"violations\": 0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn csv_traces_round_trip_through_the_cli() {
    use gaia_carbon::CarbonTrace;
    let dir = std::env::temp_dir();
    let carbon_path = dir.join("gaia_cli_test_carbon.csv");
    let workload_path = dir.join("gaia_cli_test_workload.csv");

    let carbon =
        CarbonTrace::from_hourly((0..200).map(|h| 100.0 + (h % 24) as f64 * 20.0).collect())
            .expect("valid trace");
    let mut buf = Vec::new();
    gaia_carbon::io::write_trace_csv(&mut buf, &carbon).expect("serialize");
    std::fs::write(&carbon_path, buf).expect("write carbon csv");

    let workload = gaia_workload::synth::section3_workload(5);
    let mut buf = Vec::new();
    gaia_workload::io::write_trace_csv(&mut buf, &workload).expect("serialize");
    std::fs::write(&workload_path, buf).expect("write workload csv");

    let out = run_ok(&[
        "--carbon-csv",
        carbon_path.to_str().expect("utf-8"),
        "--workload-csv",
        workload_path.to_str().expect("utf-8"),
        "--baseline",
    ]);
    assert!(out.contains("relative to NoWait"));
    std::fs::remove_file(&carbon_path).ok();
    std::fs::remove_file(&workload_path).ok();
}

#[test]
fn run_trace_is_byte_identical_across_runs_and_summarizes_clean() {
    // Acceptance scenario: `gaia run --trace` on the CLI defaults
    // (Carbon-Time / SA-AU / Alibaba week_long_1k / seed 42) must write
    // the same bytes on every invocation.
    let dir = std::env::temp_dir().join("gaia_cli_test_run_trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let first = dir.join("a.jsonl");
    let second = dir.join("b.jsonl");
    run_ok(&["run", "--trace", first.to_str().expect("utf-8")]);
    run_ok(&["run", "--trace", second.to_str().expect("utf-8")]);
    let bytes = std::fs::read(&first).expect("trace written");
    assert!(!bytes.is_empty(), "trace has events");
    assert_eq!(
        bytes,
        std::fs::read(&second).expect("trace written"),
        "traced runs are byte-identical"
    );

    // `gaia trace summarize` validates the stream and exits 0.
    let out = run_ok(&["trace", "summarize", first.to_str().expect("utf-8")]);
    assert!(out.contains("trace summary"), "stdout: {out}");
    assert!(out.contains("submitted"), "stdout: {out}");
    assert!(out.contains("stream checks: ok"), "stdout: {out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace destination that fails every write: the run must end with
/// the "cannot write" error and a failure exit, not hang or panic on
/// the trace writer thread.
#[cfg(target_os = "linux")]
#[test]
fn run_trace_to_a_full_device_fails_cleanly() {
    use std::time::{Duration, Instant};
    let mut child = gaia()
        .args(["run", "--trace", "/dev/full"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on gaia") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("gaia run --trace /dev/full did not finish");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut err = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut err)
        .expect("utf-8 stderr");
    assert_eq!(status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("cannot write /dev/full"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn run_metrics_prints_snapshot_and_phase_table() {
    let output = gaia()
        .args(["run", "--workload", "section3", "--seed", "1", "--metrics"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let out = String::from_utf8_lossy(&output.stdout);
    assert!(out.contains("\"sim.jobs\""), "stdout: {out}");
    assert!(out.contains("\"sim.wait_hours\""), "stdout: {out}");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("phase timings"), "stderr: {err}");
    assert!(err.contains("event_loop"), "stderr: {err}");
}

#[test]
fn trace_summarize_reports_missing_file_with_failure_exit() {
    let output = gaia()
        .args(["trace", "summarize", "/nonexistent/gaia-events.jsonl"])
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(1));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("cannot open"), "stderr: {err}");
}

#[test]
fn sweep_trace_dir_and_metrics_are_worker_count_invariant() {
    let dir = std::env::temp_dir().join("gaia_cli_test_sweep_obs");
    std::fs::remove_dir_all(&dir).ok();
    for workers in ["1", "2"] {
        let traces = dir.join(format!("traces-{workers}"));
        let output = gaia()
            .args([
                "sweep",
                "--policies",
                "nowait,carbon-time",
                "--seeds",
                "1",
                "--workers",
                workers,
                "--no-progress",
                "--metrics",
                "--trace-dir",
                traces.to_str().expect("utf-8"),
                "--out",
                dir.to_str().expect("utf-8"),
                "--name",
                workers,
            ])
            .output()
            .expect("binary runs");
        assert_eq!(
            output.status.code(),
            Some(0),
            "observed sweep is clean: {}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
    let metrics_1 = std::fs::read(dir.join("1/metrics.json")).expect("metrics written");
    let metrics_2 = std::fs::read(dir.join("2/metrics.json")).expect("metrics written");
    assert!(!metrics_1.is_empty());
    assert_eq!(metrics_1, metrics_2, "metrics.json is worker-invariant");
    let manifest = std::fs::read_to_string(dir.join("1/manifest.json")).expect("manifest");
    assert!(manifest.contains("\"profile\": ["), "manifest: {manifest}");

    let mut names: Vec<String> = std::fs::read_dir(dir.join("traces-1"))
        .expect("trace dir written")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "one trace per cell: {names:?}");
    for name in &names {
        let serial = std::fs::read(dir.join("traces-1").join(name)).expect("trace");
        let parallel = std::fs::read(dir.join("traces-2").join(name)).expect("trace");
        assert!(!serial.is_empty());
        assert_eq!(serial, parallel, "{name} is worker-invariant");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gaia_log_warn_silences_info_diagnostics() {
    let output = gaia()
        .args(["--trace", "section3", "--seed", "1", "--audit"])
        .env("GAIA_LOG", "warn")
        .output()
        .expect("binary runs");
    assert_eq!(output.status.code(), Some(0));
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(
        !err.contains("no violations"),
        "GAIA_LOG=warn hides the info-level audit line: {err}"
    );
    // Errors still surface at the same level.
    let output = gaia()
        .arg("--frobnicate")
        .env("GAIA_LOG", "warn")
        .output()
        .expect("binary runs");
    let err = String::from_utf8_lossy(&output.stderr);
    assert!(err.contains("unknown flag"), "stderr: {err}");
}
