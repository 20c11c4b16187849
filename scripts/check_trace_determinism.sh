#!/usr/bin/env bash
# Trace determinism gate for the reference scenario (the `gaia run`
# defaults: Carbon-Time / SA-AU / Alibaba week-long 1k jobs / seed 42).
#
#  1. runs the traced scenario twice and byte-compares the JSONL streams;
#  2. summarizes the trace with `gaia trace summarize` (which also
#     validates the stream: monotone timestamps, balanced segments);
#  3. compares the stream's SHA-256 against the committed digest, so a
#     deterministic byte drift in the serializer or sink (which step 1
#     cannot see: both runs drift alike) fails loudly;
#  4. diffs the summary against the committed golden file, so any drift
#     in the event schema or the simulation itself fails loudly.
#
# Regenerate both goldens after an intentional change with:
#   ./scripts/check_trace_determinism.sh --bless
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN=tests/golden/trace_summary.txt
DIGEST=tests/golden/trace.sha256
WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

cargo build --release -p gaia-cli

echo "== traced reference scenario, run 1"
./target/release/gaia run --trace "${WORK}/a.jsonl" > /dev/null
echo "== traced reference scenario, run 2"
./target/release/gaia run --trace "${WORK}/b.jsonl" > /dev/null
cmp "${WORK}/a.jsonl" "${WORK}/b.jsonl"
echo "trace streams are byte-identical ($(wc -l < "${WORK}/a.jsonl") events)"

echo "== gaia trace summarize"
./target/release/gaia trace summarize "${WORK}/a.jsonl" > "${WORK}/summary.txt"
sha256sum < "${WORK}/a.jsonl" | cut -d' ' -f1 > "${WORK}/trace.sha256"

if [[ "${1:-}" == "--bless" ]]; then
  mkdir -p "$(dirname "${GOLDEN}")"
  cp "${WORK}/summary.txt" "${GOLDEN}"
  cp "${WORK}/trace.sha256" "${DIGEST}"
  echo "goldens updated: ${GOLDEN} ${DIGEST}"
  exit 0
fi

diff -u "${DIGEST}" "${WORK}/trace.sha256"
echo "trace bytes match the committed digest: ${DIGEST}"

diff -u "${GOLDEN}" "${WORK}/summary.txt"
echo "summary matches the golden file: ${GOLDEN}"
