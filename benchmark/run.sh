#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Run from the root of the repository:
#
#   bash benchmark/run.sh --workload production --seed 42 --seconds 30 --trace 0
#
# Builds tpf-bench from this tree into .bench_build (the first call compiles
# the library; later calls only re-check it), then runs it with the given
# arguments. Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result. Outputs land in .bench_out.
set -euo pipefail

build=.bench_build
if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
    cmake -S benchmark -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" --target tpf-bench -j "$(nproc)" >&2
# Not exec: the resource usage of children reaped before an exec (the
# compiler, on the first run) would count in tpf-bench's peak_rss_mib.
"$build/tpf-bench" "$@"
