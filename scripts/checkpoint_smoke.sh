#!/bin/sh
# checkpoint_smoke.sh — end-to-end checkpoint/resume smoke over the baatsim
# CLI: run six days straight, run the first three days with a checkpoint,
# resume the remaining three from the file, and require the resumed report
# — every day row, the totals, the node summary, and the lifetime
# projections — to be byte-identical to the uninterrupted run. Runs under
# the chaos fault profile so the checkpoint carries injector state, not
# just clean physics. A second pass repeats this on a 12-node fleet that
# mixes lead-acid, linear and LFP nodes.
# Usage: ./scripts/checkpoint_smoke.sh  (or: make checkpoint-smoke)
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/baatsim" ./cmd/baatsim

run() {
    "$tmp/baatsim" -policy baat -seed 7 -accel 10 -faults chaos "$@"
}

# pass NAME FLAGS... runs the three legs with FLAGS and compares the
# resumed report with the uninterrupted one.
pass() {
    name=$1
    shift
    run "$@" -days 6 > "$tmp/$name.full.txt"
    run "$@" -days 3 -checkpoint-every 3 -checkpoint "$tmp/$name.ck.json" > /dev/null
    run "$@" -days 6 -resume "$tmp/$name.ck.json" > "$tmp/$name.resumed.txt"

    # The resumed report must match the uninterrupted one exactly, minus
    # its leading "resumed from ..." banner.
    grep -v '^resumed from ' "$tmp/$name.resumed.txt" > "$tmp/$name.resumed.clean"

    if ! [ -s "$tmp/$name.full.txt" ]; then
        echo "checkpoint-smoke: $name: empty reference output" >&2
        exit 1
    fi
    if ! diff -u "$tmp/$name.full.txt" "$tmp/$name.resumed.clean"; then
        echo "checkpoint-smoke: $name: resumed run diverged from the uninterrupted run" >&2
        exit 1
    fi
    echo "checkpoint-smoke: $name: resumed report byte-identical to the uninterrupted run"
}

pass default
pass mix -nodes 12 -battery-mix leadacid=0.5,linear=0.25,lfp=0.25
