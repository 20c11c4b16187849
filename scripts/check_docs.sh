#!/usr/bin/env bash
# Documentation gate:
#
#  1. `cargo doc --no-deps` must build warnings-clean (broken intra-doc
#     links, missing docs on deny-listed crates, bad code fences);
#  2. every crate must open with crate-level `//!` documentation;
#  3. every binary / script named in EXPERIMENTS.md must exist, so the
#     figure-to-artifact map cannot silently rot;
#  4. every backticked `name(` or `Path::name(` in DESIGN.md and
#     README.md must name a `fn name` under crates/, so docs cannot keep
#     describing APIs that were removed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== crate-level rustdoc present"
for lib in crates/*/src/lib.rs; do
  head -1 "${lib}" | grep -q '^//!' \
    || { echo "missing crate-level docs: ${lib}"; exit 1; }
done

echo "== EXPERIMENTS.md references resolve"
if [[ -f EXPERIMENTS.md ]]; then
  # Backticked references like `figure08`, `robustness`, `gaia sweep`,
  # `scripts/reproduce_all.sh` must point at real targets.
  grep -oE '`(figure[0-9]+|table1|ablations|sensitivity|robustness|obs_overhead|plan_kernels|ext_[a-z_]+)`' EXPERIMENTS.md \
    | tr -d '`' | sort -u | while read -r bin; do
      [[ -f "crates/bench/src/bin/${bin}.rs" ]] \
        || { echo "EXPERIMENTS.md names missing binary: ${bin}"; exit 1; }
    done
  grep -oE 'scripts/[a-z_]+\.sh' EXPERIMENTS.md | sort -u | while read -r sh; do
    [[ -x "${sh}" ]] || { echo "EXPERIMENTS.md names missing script: ${sh}"; exit 1; }
  done
else
  echo "EXPERIMENTS.md not found" && exit 1
fi

echo "== DESIGN.md / README.md function references resolve"
stale=0
while read -r name; do
  grep -rqE "fn ${name}\b" crates/ --include='*.rs' \
    || { echo "docs name a function that does not exist: ${name}"; stale=1; }
done < <(grep -ohE '`([A-Za-z_][A-Za-z0-9_]*::)*[A-Za-z_][A-Za-z0-9_]*\(' DESIGN.md README.md \
  | sed -E 's/^`//; s/\($//; s/.*:://' | sort -u)
[[ ${stale} -eq 0 ]] || exit 1

echo "docs gate passed"
