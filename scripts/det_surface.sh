#!/usr/bin/env bash
# Writes the determinism surface into one directory: every artefact that
# must be byte-identical across same-seed runs of one build, and across
# a behaviour-preserving refactor.
#
#   scripts/det_surface.sh OUTDIR [RAWDIR]
#
# OUTDIR receives:
#   bench.det.json     `repro --json` rows minus the "wall":true ones
#   top.txt            `repro top` (kitetop crash-cycle snapshots)
#   lat.txt            `repro lat` (per-stage waterfalls)
#   series.csv/.json   `repro prof` sampler series
#   quickstart.json    Chrome trace, single-queue echo
#   recovery.json      Chrome trace, watchdog crash/recovery cycle
#   mq.json            Chrome trace, 4-queue netback
#   gso.json           Chrome trace, 4-queue netback with GSO
#   stor.json          Chrome trace, 4-ring blkback
#
# RAWDIR (optional) keeps the by-products that carry wall-clock numbers
# and so are not comparable byte for byte: the full `repro --json`
# snapshot (bench.json), the profiler table (prof.txt) and its collapsed
# stacks (prof.folded).
#
# Two runs compared with `diff -r` prove same-seed determinism; the same
# script run in a checkout of another commit compares the two commits.
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 OUTDIR [RAWDIR]" >&2; exit 2; }
out="$1"
raw="${2:-}"
cd "$(dirname "$0")/.."

cargo build --release --offline -q --workspace --bins --examples
bin=./target/release
ex=./target/release/examples

mkdir -p "$out"
cleanup=""
if [ -z "$raw" ]; then
    raw="$(mktemp -d)"
    cleanup="$raw"
fi
mkdir -p "$raw"
trap '[ -z "$cleanup" ] || rm -rf "$cleanup"' EXIT

# Each traced example validates its Chrome export before writing it.
"$ex/quickstart" --trace "$out/quickstart.json" > /dev/null
"$ex/recovery_trace" "$out/recovery.json" > /dev/null
"$ex/quickstart" --queues 4 --trace "$out/mq.json" > /dev/null
"$ex/quickstart" --gso --queues 4 --trace "$out/gso.json" > /dev/null
"$ex/storage_domain" --rings 4 --trace "$out/stor.json" > /dev/null

# Wall-clock-derived rows (scheduler throughput, profiler phase times
# and overhead) are marked "wall":true by the renderer; strip by the
# marker, never by name patterns.
"$bin/repro" --json "$raw/bench.json" > /dev/null
python3 - "$raw/bench.json" "$out/bench.det.json" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))
det = [r for r in rows if not r.get("wall")]
assert len(det) < len(rows), "expected some wall-marked rows in the snapshot"
json.dump(det, open(sys.argv[2], "w"), sort_keys=True)
EOF

"$bin/repro" top > "$out/top.txt"
"$bin/repro" lat > "$out/lat.txt"
# The sampler rides the virtual-time scheduler, so its series are
# deterministic even though the profiler table beside them is not.
"$bin/repro" prof \
    --collapsed "$raw/prof.folded" \
    --series-csv "$out/series.csv" \
    --series-json "$out/series.json" > "$raw/prof.txt"

for f in quickstart.json recovery.json mq.json gso.json stor.json \
    bench.det.json top.txt lat.txt series.csv series.json; do
    [ -s "$out/$f" ] || { echo "det_surface: $f missing or empty" >&2; exit 1; }
done
