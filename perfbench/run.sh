#!/usr/bin/env bash
# Builds hyperhetd and the perfbench binary into .bench_build/ and runs
# perfbench with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload detect --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh steady --workload detect --runs 10 --out set.json
#
# Everything the build and the runs write stays under .bench_build/,
# including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hyperhetd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/hyperhetd and perfbench/ needed)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/hyperhetd" ./cmd/hyperhetd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# go build rewrites both binaries even when nothing changed. Write them
# back now, so the first journal fsync of the run does not pay for it.
sync "$out/hyperhetd" "$out/perfbench"

sub=()
if [[ "${1:-}" == steady ]]; then
	sub=(steady)
	shift
fi
exec "$out/perfbench" "${sub[@]}" -server "$out/hyperhetd" -workdir "$out" "$@"
