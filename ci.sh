#!/usr/bin/env bash
# Tier-1 gate: hermetic (offline) build, full test suite, workspace lint
# pass. Everything here must succeed with no network access at all.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --workspace --release --offline
# Rustdoc gate: a doc link left pointing at a renamed or deleted item (or
# any other rustdoc warning) fails CI.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
cargo test --workspace -q --offline
# The chaos and parallel-equivalence suites are part of the workspace run
# above; keep explicit invocations so a fault-model or determinism
# regression is named in CI output.
cargo test -q --offline --test chaos
cargo test -q --offline --test storage_chaos
cargo test -q --offline --test crash_resume
cargo test -q --offline --test record_fuzz
cargo test -q --offline --test serve
cargo test -q --offline --test parallel_equivalence
cargo test -q --offline --test hotpath_equivalence
cargo test -q --offline --test coverage
# Threads=1 vs threads=4 smoke check: asserts bit-identical results only;
# the printed speedup is informational (never a gate).
cargo test -q --offline -p stem-bench --test scaling_smoke -- --nocapture
# The tidy pass publishes its one-line JSON summary (violation, warning
# and per-rule counts) as a committed artifact so rule-count drift shows
# up as a diff in review, not just as CI exit status.
cargo run -p stem-tidy --release --offline -- --summary-out crates/bench/results/tidy_summary.json
if ! git diff --quiet -- crates/bench/results/tidy_summary.json 2>/dev/null; then
  echo "crates/bench/results/tidy_summary.json drifted from the committed summary:" >&2
  git --no-pager diff -- crates/bench/results/tidy_summary.json >&2
  exit 1
fi
# Coverage calibration matrix (6 samplers x 6 scenarios x 40 reps +
# chaos cell): the summary is a committed artifact, so any change in a
# cell's tally — a sampler's bound going stale, a scenario drifting —
# shows up as a diff in review, not just as a coverage gate failure.
STEM_RESULTS_DIR=crates/bench/results \
  cargo run -p stem-bench --release --offline --bin repro -- coverage
if ! git diff --quiet -- crates/bench/results/coverage_summary.json 2>/dev/null; then
  echo "crates/bench/results/coverage_summary.json drifted from the committed matrix:" >&2
  git --no-pager diff -- crates/bench/results/coverage_summary.json >&2
  exit 1
fi
# Committed paper results: `repro all` is deterministic, so a rerun must
# reproduce every tracked CSV under results/ byte for byte. A changed
# number shows up as a diff in review, not as silently stale output.
STEM_RESULTS_DIR=results \
  cargo run -p stem-bench --release --offline --bin repro -- all > /dev/null
if ! git diff --quiet -- results/; then
  echo "results/ drifted from the committed CSVs (rerun \`repro all\` and review):" >&2
  git --no-pager diff --stat -- results/ >&2
  exit 1
fi
# Hot-path perf baseline: informational only, never a gate (CI machines
# are too noisy for wall-clock thresholds). Reference numbers live in
# EXPERIMENTS.md; regenerate the committed baseline with
#   STEM_THREADS=1 cargo run -p stem-bench --release --bin perf -- --hf-scale 0.05
STEM_THREADS=1 cargo run -p stem-bench --release --offline --bin perf -- \
  --hf-scale 0.02 --reps 2 --out target/BENCH_hotpath_ci.json || \
  echo "perf baseline run failed (informational, not a gate)"
# No step above may write into the tree: a build, test or tool that leaves
# a modified or untracked file behind fails CI.
if [ -n "$(git status --porcelain)" ]; then
  echo "the CI run left the working tree dirty:" >&2
  git status --porcelain >&2
  exit 1
fi
