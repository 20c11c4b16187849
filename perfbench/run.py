#!/usr/bin/env python3
"""Build and run the GAIA-rs benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py record    # print a fresh digest table
    python3 perfbench/run.py spread    # spread of every metric over .bench_work/results.jsonl

Run from the root of a checkout. Builds `perfbench` (the benchmark
package) and the `gaia` CLI in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the benchmark binary, whose last
stdout line is the result object. Scratch files, spans and the result
history go to `.bench_work/`.
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# The binary bounds its own run; this only stops a hung one.
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for what, cmd in (
        ("benchmark", ["--manifest-path", "perfbench/Cargo.toml"]),
        ("gaia CLI", ["--manifest-path", "Cargo.toml", "-p", "gaia-cli"]),
    ):
        if not (ROOT / cmd[1]).is_file():
            fail(f"cannot build the {what}: {cmd[1]} is missing")
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *cmd],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            fail(f"building the {what} failed")


def output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where there is no git history."""
    digest = hashlib.sha256()
    here = ROOT / "perfbench"
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", here / "run.py"]
    files += [here / n for n in ("Cargo.toml", "Cargo.lock", "digests.txt")]
    for root in (ROOT / "crates", ROOT / "vendor", here / "src"):
        files += [p for p in root.rglob("*") if p.suffix in (".rs", ".toml")]
    for path in sorted(set(files)):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv):
    target = target_dir()
    build(target)
    binary = target / "release" / "gaia-perfbench"
    if argv[:1] == ["record"]:
        sys.exit(subprocess.run([str(binary), "record"], cwd=ROOT).returncode)
    if argv[:1] == ["spread"]:
        cmd = [str(binary), "spread", str(WORK / "results.jsonl")]
        sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)
    WORK.mkdir(exist_ok=True)
    commit = output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown"
    cmd = [
        str(binary),
        *argv,
        "--gaia", str(target / "release" / "gaia"),
        "--work", str(WORK),
        "--commit", commit,
        "--rustc", output(["rustc", "-V"]),
        "--source", source_digest(),
    ]
    # A session of its own, so a timeout also stops the daemons it runs.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s", 3)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
