#!/usr/bin/env bash
# Builds vs2d and the e2ebench program from this checkout and
# runs e2ebench with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload posters-online --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# write (Go build cache, binaries, journals, traces) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/vs2d" || ! -f "$root/e2ebench/go.mod" ]]; then
  echo "e2ebench: run from the root of a vs2 checkout (go.mod, cmd/vs2d, e2ebench/)" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/run"
# The go command's cache, module path, temp files and config (telemetry
# counters included) all default to the home directory, and cgo's probe
# of the C compiler writes to TMPDIR.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$build/bin/" ./cmd/vs2d
(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .)
exec "$build/bin/e2ebench" -bin "$build/bin" -work "$build/run" "$@"
