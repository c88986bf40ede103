#!/bin/sh
# policy_registry_check.sh — registry hygiene, part of `make check`.
#
# The policy registry (internal/core/registry.go) is the single construction
# path for control policies: everything outside internal/core must go
# through core.Build/core.Normalize with a core.PolicySpec. This guard fails
# when code reintroduces the pre-registry idioms:
#   1. the deleted closed enum (core.Kind, core.New, the Kind constants);
#   2. direct construction of a concrete policy type outside internal/core
#      (which would bypass option validation and the Stateful wiring);
#   3. a hand-rolled policy-name table outside the registry (switch/map on
#      literal policy names decides behavior the registry should own);
#   4. internal/core depending on the engine: policies see nodes, so
#      `go list -deps ./internal/core` must list neither internal/fleet
#      nor internal/sim;
#   5. the battery tier decided outside internal/battery: a fleet lays out
#      nodes and a node owns its parts, so internal/fleet imports none of
#      internal/battery, internal/aging and internal/server, and non-test
#      Go under internal/node, internal/fleet and internal/sim names no
#      battery.Kind constant (KindLeadAcid, KindLinear, KindLFP);
#   6. a second scenario assembly in the CLI: baatsim fills the serve
#      daemon's run spec and builds its engine config and weather with the
#      spec's methods, so non-test Go under cmd/baatsim names none of
#      baat.DefaultSimConfig, baat.NewStream, baat.FaultProfile( and
#      WithBatteryModel.
# Usage: ./scripts/policy_registry_check.sh  (from the repository root)
set -eu

fail=0

# Go sources outside internal/core (tests included: they must use the
# public surface too).
files=$(find . -name '*.go' -not -path './internal/core/*' -not -path './.git/*')

# 1. The deleted enum API. Any of these means a migration sweep was undone.
if echo "$files" | xargs grep -nE 'core\.(Kind|New\(|EBuff|BAATSlowdown|BAATHiding|BAATFull|PolicyKinds|Kinds\()' /dev/null; then
    echo "policy-registry-check: deleted core.Kind enum API referenced outside internal/core" >&2
    fail=1
fi

# 2. Concrete policy construction. The concrete types are unexported, so
# this can only appear as a freshly exported leak — catch it by name.
if echo "$files" | xargs grep -nE 'core\.(eBuff|baatSlowdown|baatHiding|baat|baatF)\{' /dev/null; then
    echo "policy-registry-check: concrete policy constructed outside internal/core" >&2
    fail=1
fi

# 3. Hand-rolled policy-name dispatch: a switch or map keyed on the literal
# canonical names duplicates the registry's lookup table. (The experiments
# package pins the paper's fixed Table 4 roster as PolicySpec literals —
# that is data, not dispatch, and does not match these patterns.)
if echo "$files" | xargs grep -nE 'case "(ebuff|e-buff|baat-s|baat-h|baat-f|baats|baath|baatf)"' /dev/null; then
    echo "policy-registry-check: switch on literal policy names outside internal/core (use core.Normalize/core.Build)" >&2
    fail=1
fi

# 4. Policies act on nodes, not on the engine's execution layout. A
# dependency on internal/fleet or internal/sim would let a policy read
# shard state, or see different inputs at different worker counts.
deps=$(${GO:-go} list -deps ./internal/core)
if echo "$deps" | grep -E '/internal/(fleet|sim)$'; then
    echo "policy-registry-check: internal/core depends on the engine (internal/fleet or internal/sim)" >&2
    fail=1
fi

# 5. The tier is the pack's business. A fleet that imports a part's
# package, or a node, fleet or engine that names a tier, has started
# dispatching on the tier again.
imports=$(${GO:-go} list -f '{{join .Imports "\n"}}' ./internal/fleet)
if echo "$imports" | grep -E '/internal/(battery|aging|server)$'; then
    echo "policy-registry-check: internal/fleet imports a node part's package (internal/battery, internal/aging or internal/server)" >&2
    fail=1
fi
tiered=$(find internal/node internal/fleet internal/sim -name '*.go' -not -name '*_test.go')
if echo "$tiered" | xargs grep -nE 'battery\.Kind(LeadAcid|Linear|LFP)\b' /dev/null; then
    echo "policy-registry-check: internal/node, internal/fleet or internal/sim names a battery tier (the tier is decided in internal/battery)" >&2
    fail=1
fi

# 6. One scenario, one assembly. A CLI that builds its own engine config
# or draws its own weather can configure a scenario differently from the
# daemon.
cli=$(find cmd/baatsim -name '*.go' -not -name '*_test.go')
if echo "$cli" | xargs grep -nE 'baat\.(DefaultSimConfig|NewStream)\b|baat\.FaultProfile\(|WithBatteryModel' /dev/null; then
    echo "policy-registry-check: cmd/baatsim assembles its own engine config or weather (fill baat.SimServiceRunSpec and call its SimConfig and WeatherSequence)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "policy-registry-check: OK"
