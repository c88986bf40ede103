#!/bin/sh
# docs_check.sh — documentation link hygiene, part of `make check`:
#   1. every file under docs/ is reachable from README.md (an orphaned
#      document is one nobody will find);
#   2. every intra-repo markdown link in README.md and docs/*.md resolves
#      to an existing file or directory (anchors and external URLs are
#      out of scope);
#   3. every internal/<pkg>, cmd/<name> and examples/<name> directory named
#      in README.md, DESIGN.md, PAPER.md or docs/*.md exists, so a deleted
#      package cannot linger in the docs. ROADMAP.md, CHANGES.md and
#      EXPERIMENTS.md narrate history and are not checked;
#   4. docs/OBSERVABILITY.md and the telemetry catalogue agree both ways:
#      every canonical metric in internal/telemetry/names.go and every
#      event type in internal/telemetry/tracer.go is documented there, and
#      every baat_* metric the document names exists in names.go;
#   5. every backticked `pkg.Ident` in README.md, DESIGN.md, PAPER.md or
#      docs/*.md whose pkg is an internal/<pkg> package names an
#      identifier that package declares (exported or not), so a deleted
#      symbol cannot linger in the docs either. `go doc -u` resolves each
#      in ~30 ms.
# Usage: ./scripts/docs_check.sh  (from the repository root)
set -eu

fail=0

for doc in docs/*.md; do
    if ! grep -q "$doc" README.md; then
        echo "docs-check: $doc is not linked from README.md" >&2
        fail=1
    fi
done

# Pull every ](target) out of the checked set, drop external links and
# pure anchors, strip #fragments, and require the target to exist
# relative to the linking file's directory.
for md in README.md docs/*.md; do
    dir=$(dirname "$md")
    links=$(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//') || true
    for link in $links; do
        case $link in
        http://* | https://* | mailto:* | \#*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "docs-check: $md links to missing $link" >&2
            fail=1
        fi
    done
done

for md in README.md DESIGN.md PAPER.md docs/*.md; do
    dirs=$(grep -oE '(internal|cmd|examples)/[A-Za-z0-9_-]+' "$md" | sort -u) || true
    for d in $dirs; do
        if [ ! -d "$d" ]; then
            echo "docs-check: $md names missing directory $d" >&2
            fail=1
        fi
    done
done

obs=docs/OBSERVABILITY.md
metrics=$(grep -oE '"baat_[a-z0-9_]+"' internal/telemetry/names.go | tr -d '"' | sort -u)
events=$(grep -oE 'EventType = "[a-z0-9_]+"' internal/telemetry/tracer.go | sed 's/.*"\(.*\)"/\1/' | sort -u)
for name in $metrics $events; do
    if ! grep -qF "\`$name\`" "$obs"; then
        echo "docs-check: $obs does not document $name" >&2
        fail=1
    fi
done
for name in $(grep -oE 'baat_[a-z0-9_]+' "$obs" | sort -u); do
    if ! echo "$metrics" | grep -qx "$name"; then
        echo "docs-check: $obs documents $name, which internal/telemetry/names.go does not define" >&2
        fail=1
    fi
done

for md in README.md DESIGN.md PAPER.md docs/*.md; do
    refs=$(grep -oE '`[a-z][a-z0-9]*\.[A-Za-z_][A-Za-z0-9_]*' "$md" | tr -d '`' | sort -u) || true
    for ref in $refs; do
        pkg=${ref%%.*}
        [ -d "internal/$pkg" ] || continue
        if ! ${GO:-go} doc -u "./internal/$pkg" "${ref#*.}" >/dev/null 2>&1; then
            echo "docs-check: $md names \`$ref\`, which internal/$pkg does not declare" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docs-check: OK"
