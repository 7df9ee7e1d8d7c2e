#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): build the benchmark from
# source inside the checkout, then run it with the driver's arguments.
# Everything the build and the run write — Go's build cache, temp files,
# module path and toolchain counters included — stays under .bench_build
# in the checkout, and the build never reaches for the network.
set -euo pipefail
build="$PWD/.bench_build"
bin="$build/naspipe-ledger"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
# With telemetry in its default local mode the go command starts, about once
# a day per config directory, a detached child of itself that outlives it:
# a process this benchmark would leave running. The mode file is the only
# switch (GOTELEMETRY in the environment is read-only); off starts no child.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
# go build tracks staleness itself; a build that has nothing to do takes
# well under a second. sync flushes what it left dirty, so that does not
# land on the run's fsyncs (ckpt-crash is fsync-bound).
go build -o "$bin" ./bench
sync
exec "$bin" "$@"
