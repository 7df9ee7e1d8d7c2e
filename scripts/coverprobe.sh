#!/usr/bin/env bash
# coverprobe.sh: which non-test functions does no real path reach?
#
# Builds every cmd/ and examples/ binary with coverage instrumentation
# (go build -cover -coverpkg=naspipe/...), runs the commands CI's smokes
# run with GOCOVERDIR set, and writes two files into OUT:
#
#   func.txt  `go tool covdata func` over every run, one line per function
#   zero.txt  the functions at 0.0 %, i.e. reached by no command above
#
# A function in zero.txt is a deletion candidate only after a grep shows
# it has no non-test caller. This is a report, not a gate: the script
# fails only when a command it runs fails. Everything runs offline on
# loopback; the fleet and the daemon bind 127.0.0.1 ports chosen by the
# kernel.
#
# Usage: scripts/coverprobe.sh [OUT]    (default OUT: coverprobe)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-coverprobe}
mkdir -p "$out"
out=$(cd "$out" && pwd)
tmp=$(mktemp -d)
daemon=""
cleanup() {
	if [ -n "$daemon" ]; then
		kill "$daemon" 2>/dev/null || true
		wait "$daemon" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

bin=$tmp/bin
export GOCOVERDIR=$tmp/cov
mkdir -p "$bin" "$GOCOVERDIR"

cd "$root"
for dir in cmd/* examples/*; do
	go build -cover -coverpkg=naspipe/... -o "$bin/$(basename "$dir")" "./$dir"
done

# run NAME EXPECTED_CODE CMD...: run CMD with its output in $tmp/NAME.out
# and fail the probe unless it exits EXPECTED_CODE.
run() {
	local name=$1 want=$2 code=0
	shift 2
	echo "coverprobe: $name" >&2
	(cd "$tmp" && "$@") > "$tmp/$name.out" 2>&1 || code=$?
	if [ "$code" -ne "$want" ]; then
		echo "coverprobe: $name exited $code, want $want" >&2
		tail -20 "$tmp/$name.out" >&2
		exit 1
	fi
}

for ex in examples/*; do
	run "example-$(basename "$ex")" 0 "$bin/$(basename "$ex")"
done

run bench-all 0 "$bin/naspipe-bench" -exp all -quick
run bench-concurrent 0 "$bin/naspipe-bench" -concurrent
run bench-predictor 0 "$bin/naspipe-bench" -concurrent -predictor \
	-trace-out trace.json -events-out events.jsonl
run replay 0 "$bin/naspipe-replay" -events events.jsonl

run train-simulated 0 "$bin/naspipe-train"
run train-search 0 "$bin/naspipe-train" search
run train-faulted 0 "$bin/naspipe-train" -faults seed=7 -checkpoint train.ckpt -subnets 48
run train-crash 3 "$bin/naspipe-train" -faults "seed=7,crashat=2:9:F" -checkpoint crash.ckpt
run train-resume 0 "$bin/naspipe-train" -checkpoint crash.ckpt -resume

run scenario-sweep 0 "$bin/naspipe-scenario" -dir "$root/scenarios" -out sweep.json

run fleet 0 "$bin/naspiped" dist -gpus 2 -subnets 24 -seed 7 -checkpoint fleet.ckpt

# The daemon logs its bound address; the client talks to it there.
"$bin/naspiped" -addr 127.0.0.1:0 -state-dir "$tmp/svc-state" -workers 2 \
	> "$tmp/naspiped.log" 2>&1 &
daemon=$!
addr=""
for _ in $(seq 1 100); do
	addr=$(sed -n 's/.*"msg":"serving".*"addr":"\([^"]*\)".*/\1/p' "$tmp/naspiped.log" | head -1)
	[ -n "$addr" ] && break
	sleep 0.1
done
if [ -z "$addr" ]; then
	echo "coverprobe: naspiped never logged its address" >&2
	cat "$tmp/naspiped.log" >&2
	exit 1
fi
client=("$bin/naspipe-client" -addr "http://$addr")
run client-submit 0 "${client[@]}" submit -tenant probe -name crashy -subnets 24 -verify \
	-faults "seed=7,crashat=2:9:F"
job=$(awk 'NR==1{print $2}' "$tmp/client-submit.out")
run client-wait 0 "${client[@]}" wait "$job"
run client-top 0 "${client[@]}" top -n 1
kill -TERM "$daemon"
wait "$daemon"
daemon=""

go tool covdata func -i="$GOCOVERDIR" > "$out/func.txt"
grep -E '[[:space:]]0\.0%$' "$out/func.txt" > "$out/zero.txt" || true
echo "coverprobe: $(wc -l < "$out/zero.txt") of $(grep -vc '^total' "$out/func.txt") functions at 0 % -> $out/zero.txt" >&2
