#!/usr/bin/env bash
# Builds the benchmark harness and the powerchop CLI from the checkout
# this script sits in, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout root: the Go build cache, temporary files, both binaries
# and each run's working directories. No network access is needed; the
# module has no dependencies outside the checkout.
#
# Go telemetry is switched off first: with it on, the first go command
# of the day in a fresh config directory starts a detached upload
# process that outlives this script. Toolchains before Go 1.23 have no
# telemetry and no such command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go telemetry off 2>/dev/null || true
(cd "$root" && go build -o "$out/powerchop" ./cmd/powerchop)
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -powerchop "$out/powerchop" -workdir "$out/run" "$@"
