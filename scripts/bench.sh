#!/bin/sh
# Matching-kernel benchmark: builds the release preset and runs the micro
# benchmarks in --json mode, writing BENCH_matching.json at the repo root
# (ns/op for the similarity kernels over string and interned bags, for a
# full matching step, and for parsing and extracting one HTML crawl
# capture, ns_per_op.parse_extract_html), then appends the executor
# thread-scaling sweep (per-page and intra-step wall times at 1/2/4/8
# workers, with the machine's hardware_concurrency recorded alongside) and
# the candidate-generation sweep (retrieval-index matching step time and
# pairs scored against tracked x incoming candidate pairs at 10..10000
# tracked objects, merged under ns_per_op.candidate_gen), the somr_lint
# analysis-pass full-tree runtime (ns_per_op.lint_analysis), and the
# context-store checkpoint/fault measurements (full vs delta records at
# 1000 dirty contexts of 100000, ns_per_op.state_io; exits non-zero below
# the 5x bytes-written bar). Compare the
# file across commits to catch hot-path regressions — the observability
# layer must stay within 2% when disabled.
#
#   scripts/bench.sh             # build + run, writes ./BENCH_matching.json
#   JOBS=8 scripts/bench.sh      # override build parallelism
set -eu

cd "$(dirname "$0")/.."
: "${JOBS:=$(nproc 2>/dev/null || echo 2)}"
export CMAKE_BUILD_PARALLEL_LEVEL="$JOBS"

cmake --preset release
cmake --build --preset release --target bench_micro_kernels \
  bench_parallel_scaling bench_retrieval_index bench_lint_analysis \
  bench_state_io
# Every bench merges its own sections into the report (bench/report.h):
# a section already there is replaced where it stands, so the order below
# only sets the key order of a fresh report: bench_micro_kernels's
# "tokens_per_bag" and kernels inside "ns_per_op", then
# "parallel_scaling" at the top level, then "candidate_gen",
# "lint_analysis" and "state_io" inside "ns_per_op".
build/release/bench/bench_micro_kernels --json BENCH_matching.json
build/release/bench/bench_parallel_scaling --json BENCH_matching.json
build/release/bench/bench_retrieval_index --json BENCH_matching.json
build/release/bench/bench_lint_analysis --json BENCH_matching.json
build/release/bench/bench_state_io --json BENCH_matching.json
echo "==> wrote BENCH_matching.json"
