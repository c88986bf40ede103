#!/bin/sh
# bitexact_check.sh — cross-commit bit check: build cmd/baatsim from the
# committed tree (git archive HEAD) and from the working tree, run the same
# six checkpointed runs with each, and fail unless every checkpoint file
# and every report matches byte for byte. The reports are compared without
# their "checkpoint after day N written to PATH" line, whose path differs
# between the two sides. The runs cover every battery tier: lead-acid,
# LFP and linear fleets under the chaos fault profile, and a mixed-tier
# fleet of 300 nodes on two workers. A 300-node BAAT fleet with a job
# backlog under the chaos faults runs on two workers too, with enough
# solar that its charge splits both cover every request and fall short,
# and completes VMs that the shard workers reap. The same fleet runs once
# more without faults, so that its nights step in dark stretches and its
# migrations and DVFS caps flag servers whose demand the load split must
# read again; the mixed-tier run is the only other fault-free one.
# Usage: ./scripts/bitexact_check.sh  (or: make bitexact)
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/head/src" "$tmp/head/out" "$tmp/work/out"
git archive HEAD | tar -x -C "$tmp/head/src"
(cd "$tmp/head/src" && go build -o "$tmp/head/baatsim" ./cmd/baatsim)
go build -o "$tmp/work/baatsim" ./cmd/baatsim

# check NAME FLAGS... runs both binaries with FLAGS plus a checkpoint file
# and compares what they wrote.
check() {
    name=$1
    shift
    for side in head work; do
        out="$tmp/$side/out/$name"
        "$tmp/$side/baatsim" "$@" -checkpoint "$out.json" > "$out.raw"
        grep -v '^checkpoint after day .* written to ' "$out.raw" > "$out.txt" || true
    done
    if ! [ -s "$tmp/head/out/$name.json" ]; then
        echo "bitexact: $name: HEAD wrote no checkpoint" >&2
        exit 1
    fi
    if ! cmp -s "$tmp/head/out/$name.json" "$tmp/work/out/$name.json"; then
        echo "bitexact: $name: checkpoint differs from HEAD's" >&2
        exit 1
    fi
    if ! diff -u "$tmp/head/out/$name.txt" "$tmp/work/out/$name.txt"; then
        echo "bitexact: $name: report differs from HEAD's" >&2
        exit 1
    fi
    echo "bitexact: $name: checkpoint ($(wc -c < "$tmp/work/out/$name.json") bytes) and report match HEAD"
}

check leadacid -policy baat -seed 7 -accel 10 -faults chaos -days 3 -checkpoint-every 3
check lfp -policy baat -seed 5 -accel 10 -faults chaos -days 6 -checkpoint-every 6 -battery-model lfp
check linear -policy baat -seed 5 -accel 10 -faults chaos -days 6 -checkpoint-every 6 -battery-model linear
check mix -policy ebuff -seed 3 -nodes 300 -workers 2 \
    -battery-mix leadacid=0.5,linear=0.25,lfp=0.25 -days 4 -checkpoint-every 4
check parallel -policy baat -seed 11 -nodes 300 -workers 2 -accel 10 -faults chaos \
    -days 3 -solar-scale 75 -jobs 300 -checkpoint-every 3
check clean -policy baat -seed 11 -nodes 300 -workers 2 -accel 10 \
    -days 3 -solar-scale 75 -jobs 300 -checkpoint-every 3

echo "bitexact: every checkpoint and report matches HEAD"
