#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Runs fully offline: the
# workspace has no registry dependencies — `criterion` resolves to the
# local shim at crates/criterion — so --offline must always succeed.
#
#   build (release)  ->  tests  ->  clippy -D warnings  ->  fmt --check
#
# Any failure fails the gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test --release --offline (libs, bins, tests)"
# Release profile: reuses the build step's artifacts, and the
# simulation-heavy workload tests are ~10x faster than under dev.
cargo test --release --offline -q --workspace --lib --bins --tests

echo "==> examples (build + smoke-run)"
cargo build --release --offline --examples
for ex in examples/*.rs; do
    name="$(basename "${ex%.rs}")"
    "./target/release/examples/${name}" > /dev/null
done

echo "==> determinism surface: two same-seed runs, byte-identical"
# scripts/det_surface.sh writes every deterministic artefact into one
# directory: the wall-stripped `repro --json` rows, `repro top`,
# `repro lat`, the `repro prof` sampler series, and the Chrome traces
# of the single-queue echo, the watchdog recovery cycle, 4-queue
# netback, 4-queue GSO netback and 4-ring blkback. Each traced run
# validates its own export before writing (chrome::validate: JSON
# parses, per-track monotonic timestamps, zero dropped events), and
# write_json validates the rendered rows round-trip. Two runs of the
# same build must agree byte for byte. The first run also keeps the
# wall-clock by-products (full bench.json, profiler table, collapsed
# stacks) for the checks below.
tdir="$(mktemp -d)"
trap 'rm -rf "$tdir"' EXIT
scripts/det_surface.sh "$tdir/a" "$tdir/raw"
scripts/det_surface.sh "$tdir/b"
diff -r "$tdir/a" "$tdir/b" \
    || { echo "verify: determinism surface differs between same-seed runs" >&2; exit 1; }

echo "==> multi-queue: per-queue tracks"
# A 4-queue run must render one synthetic track per negotiated queue.
qtracks="$(grep -c '"name":"netbackend/q' "$tdir/a/mq.json")"
[ "$qtracks" -eq 4 ] \
    || { echo "verify: expected 4 per-queue tracks, got $qtracks" >&2; exit 1; }

echo "==> queue scaling: 4-queue netback must out-drain 1 queue"
# Pull the two throughput rows out of the snapshot and compare; the
# report layer asserts the same invariant, but check the shipped JSON
# so a regression in either layer fails the gate.
python3 - "$tdir/raw/bench.json" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))
tput = {
    r["scenario"]: r["value"]
    for r in rows
    if r["metric"] == "throughput_mbps"
}
q1 = tput["mechanisms/netback_queues_1"]
q4 = tput["mechanisms/netback_queues_4"]
assert q4 > q1, f"netback_queues_4 ({q4}) must beat netback_queues_1 ({q1})"
EOF

echo "==> segmentation offload: GSO and wire-profile rows, shipped snapshot"
# The report layer asserts these when building the rows; re-check the
# checked-in snapshot so a regression in either layer fails the gate.
python3 - BENCH_mechanisms.json <<'PYEOF'
import json, sys
rows = json.load(open(sys.argv[1]))
tput = {
    r["scenario"]: r["value"]
    for r in rows
    if r["metric"] == "throughput_mbps"
}
off = tput["mechanisms/netback_gso_off"]
on = tput["mechanisms/netback_gso_on"]
assert on > off, f"netback_gso_on ({on:.0f}) must beat netback_gso_off ({off:.0f})"
assert on >= 2 * off, (
    f"GSO must at least double single-queue goodput: off={off:.0f} on={on:.0f} mbps"
)
w10 = tput["mechanisms/netback_wire_10g"]
w25 = tput["mechanisms/netback_wire_25g"]
w100 = tput["mechanisms/netback_wire_100g"]
assert w100 > w25 > w10, (
    f"goodput must climb with the line rate: "
    f"10g={w10:.0f} 25g={w25:.0f} 100g={w100:.0f} mbps"
)
q4 = tput["mechanisms/netback_wire_25g_queues_4"]
q8 = tput["mechanisms/netback_wire_25g_queues_8"]
assert q8 > q4, f"netback_wire_25g_queues_8 ({q8:.0f}) must beat queues_4 ({q4:.0f})"
assert q8 > 10_000, f"8 queues on 25GbE must break the 10GbE ceiling: {q8:.0f} mbps"
PYEOF

echo "==> blkback rings: throughput must climb with ring count"
# The report layer asserts the same staircase when building the rows;
# check the shipped JSON too so either layer regressing fails the gate.
python3 - "$tdir/raw/bench.json" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))
tput = {
    r["scenario"]: r["value"]
    for r in rows
    if r["metric"] == "throughput_mbps"
}
r1 = tput["mechanisms/blkback_rings_1"]
r2 = tput["mechanisms/blkback_rings_2"]
r4 = tput["mechanisms/blkback_rings_4"]
assert r4 > r2 > r1, (
    f"blkback rings must scale monotonically: "
    f"rings_1={r1:.0f} rings_2={r2:.0f} rings_4={r4:.0f} mbps"
)
EOF

echo "==> NVMe queue pairs: determinism + cursor isolation tests"
# Standalone so a queue-pair regression is named explicitly: the
# heap/wheel 4-ring byte-identity and the per-queue sequential-cursor
# isolation property live in this test binary.
cargo test --release --offline -q -p kite-system --test nvme

echo "==> scheduler throughput: wheel must not lose to the heap"
# Wall-clock events/sec on the fleet-drain microbench. The shipped
# BENCH_mechanisms.json records ~5x or better for the wheel; the gate
# only requires wheel >= heap so it stays robust to noisy CI machines.
python3 - "$tdir/raw/bench.json" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))
eps = {
    r["scenario"]: r["value"]
    for r in rows
    if r["metric"] == "events_per_sec"
}
heap = eps["mechanisms/sim_events_per_sec_heap"]
wheel = eps["mechanisms/sim_events_per_sec_wheel"]
assert wheel >= heap, f"timer wheel ({wheel:.0f} ev/s) lost to heap ({heap:.0f} ev/s)"
EOF

echo "==> allocation-free drain: counting-allocator test"
# Re-run the zero-alloc gate on its own so an allocation regression on
# the drain path is named explicitly, not buried in the suite above.
cargo test --release --offline -q -p kite-system --test sched_alloc

echo "==> repro prof: self-time table and collapsed stacks"
# The table must attribute self time to the instrumented hot paths,
# and the collapsed stacks must show the signature nesting (grant
# copies inside a netback drain inside IRQ dispatch) in
# flamegraph.pl-consumable `path count` shape. (The sampler series the
# same run exports are on the determinism surface above.)
grep -q '^netback_tx_drain ' "$tdir/raw/prof.txt" \
    || { echo "verify: prof table missing netback_tx_drain row" >&2; exit 1; }
grep -Eq '^kite;dispatch_irq;netback_tx_drain;grant_copy [0-9]+$' "$tdir/raw/prof.folded" \
    || { echo "verify: collapsed stacks missing nested drain path" >&2; exit 1; }

echo "==> profiler overhead: disabled path zero-alloc, enabled < 10%"
# The disabled path is covered by the sched_alloc counting-allocator
# gate above (phase 3 spans every Phase with profiling off). Here:
# the enabled path must cost less than 10% wall time on the echo
# scenario — the sampled-duration design keeps it around 5%.
python3 - "$tdir/raw/bench.json" <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))
d = {r["metric"]: r["value"] for r in rows if r["scenario"] == "mechanisms/prof_overhead"}
assert d, "mechanisms/prof_overhead rows missing from bench.json"
assert d["overhead_percent"] < 10, (
    f"profiler overhead {d['overhead_percent']:.1f}% breaches the 10% budget "
    f"(disabled {d['disabled_ns']:.0f}ns, enabled {d['enabled_ns']:.0f}ns)"
)
EOF

echo "==> repro lat: per-stage waterfalls, flow arrows validated"
# Both canonical scenarios run with request tracing on; each validates
# its flow-annotated Chrome export (flow begin/end pairing included)
# before printing. (`repro top` and `repro lat` byte-identity is
# checked with the determinism surface above.)
grep -q '^STAGE ' "$tdir/a/lat.txt" \
    || { echo "verify: lat report missing the stage table" >&2; exit 1; }
for row in grant_copy nvme_complete END_TO_END; do
    grep -q "^$row " "$tdir/a/lat.txt" \
        || { echo "verify: lat report missing $row row" >&2; exit 1; }
done
[ "$(grep -c '^flow validation: OK' "$tdir/a/lat.txt")" -eq 2 ] \
    || { echo "verify: expected 2 flow-validated lat scenarios" >&2; exit 1; }

echo "==> BENCH_mechanisms.json: row schema + wall marking"
# The checked-in snapshot must carry the full row schema (scenario,
# metric, unit, numeric value), mark exactly the wall-clock-derived
# rows "wall":true, and include the latency percentile rows.
python3 - BENCH_mechanisms.json <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))
assert rows, "no rows"
for r in rows:
    for k in ("scenario", "metric", "unit"):
        assert isinstance(r.get(k), str), f"row missing {k}: {r}"
    assert isinstance(r.get("value"), (int, float)), f"row missing numeric value: {r}"
wall_prefixes = ("mechanisms/sim_events_per_sec", "mechanisms/prof_")
for r in rows:
    if r["scenario"].startswith(wall_prefixes):
        assert r.get("wall") is True, f"wall-clock row not marked: {r}"
    else:
        assert "wall" not in r, f"deterministic row marked wall: {r}"
lat = {r["metric"] for r in rows if r["scenario"] == "latency/figure7_kite"}
need = {f"{w}_{q}_ms" for w in ("ping", "netperf", "memtier")
        for q in ("mean", "p50", "p99", "p999")}
assert need <= lat, f"latency rows missing: {sorted(need - lat)}"
EOF

echo "==> cargo doc --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "verify: OK"
