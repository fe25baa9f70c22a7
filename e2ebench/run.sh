#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it, passing every argument through. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload tpch-ingest-query --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and Go's config files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and the
# build never fetches anything.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
if [ -z "${E2EBENCH_COMMIT:-}" ]; then
	E2EBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export E2EBENCH_COMMIT
fi
(cd e2ebench && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
