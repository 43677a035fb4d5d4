#!/usr/bin/env bash
# Tier-1 verification: the workspace must build and test fully offline,
# with no registry dependencies anywhere. Run from any directory.
#
#   scripts/verify.sh
#
# Exits non-zero if (a) any Cargo.toml declares a non-path dependency,
# (b) Cargo.lock references a crate outside the workspace, or (c) the
# offline build or test run fails.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

# ---------------------------------------------------------------------------
# Guard 1: every dependency in every manifest must be a path (or workspace =
# true, which resolves to a path in the root manifest). A version string,
# git URL or registry field means someone reintroduced a network dep.
# ---------------------------------------------------------------------------
fail=0
while IFS= read -r manifest; do
    # Inspect only dependency sections; flag entries that carry neither
    # `path = ...` nor `workspace = true`.
    bad=$(awk '
        /^\[/ { indeps = ($0 ~ /dependencies/) }
        indeps && /^[A-Za-z0-9_-]+[ \t]*=/ {
            if ($0 !~ /path[ \t]*=/ && $0 !~ /workspace[ \t]*=[ \t]*true/) print FILENAME ": " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "error: non-path dependency found:" >&2
        echo "$bad" >&2
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path "./target/*")

if [ "$fail" -ne 0 ]; then
    echo "verify: FAILED (hermetic-dependency guard)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Guard 2: the lockfile must contain only workspace members — every package
# entry must carry no `source` field (registry packages always do).
# ---------------------------------------------------------------------------
if grep -q '^source = ' Cargo.lock; then
    echo "error: Cargo.lock references external sources:" >&2
    grep -B2 '^source = ' Cargo.lock >&2
    echo "verify: FAILED (lockfile guard)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Static-analysis wall: formatting, clippy at -D warnings, and the in-tree
# protocol linter (no panicking calls in protocol code, exhaustive message
# dispatch, lint headers in every crate root).
# ---------------------------------------------------------------------------
if ! cargo fmt --check; then
    echo "verify: FAILED (cargo fmt --check; run 'cargo fmt' and re-verify)" >&2
    exit 1
fi
if ! cargo clippy --workspace --offline --all-targets -q -- -D warnings; then
    echo "verify: FAILED (clippy -D warnings)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Build + test, fully offline.
# ---------------------------------------------------------------------------
cargo build --release --offline --workspace

# ---------------------------------------------------------------------------
# Semantic lint wall: the token-tree engine (determinism, lock-order,
# message-flow, obs-catalog + the legacy rules) must be findings-free, its
# JSON report must be byte-identical across two invocations (the same
# determinism bar the obs/scenario walls hold), and stale lint-allow.list
# entries fail the run (the engine reports them as findings).
# ---------------------------------------------------------------------------
lint_dir=$(mktemp -d)
trap 'rm -rf "$lint_dir"' EXIT
if ! ./target/release/domactl lint --format json > "$lint_dir/lint1.json"; then
    cat "$lint_dir/lint1.json" >&2
    echo "verify: FAILED (doma-lint wall: findings or stale allowlist entries above)" >&2
    exit 1
fi
./target/release/domactl lint --format json > "$lint_dir/lint2.json"
if ! cmp -s "$lint_dir/lint1.json" "$lint_dir/lint2.json"; then
    echo "verify: FAILED (domactl lint JSON differs across identical runs)" >&2
    exit 1
fi
if ! grep -qF '"findings": 0' "$lint_dir/lint1.json"; then
    echo "verify: FAILED (domactl lint reported findings)" >&2
    exit 1
fi

cargo test -q --offline --workspace

# ---------------------------------------------------------------------------
# Observability smoke: `domactl obs` must emit a JSON snapshot with the
# expected shape, byte-identical across two runs of the same inputs — the
# doma-obs determinism contract, checked end to end through the CLI.
# ---------------------------------------------------------------------------
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir" "$lint_dir"' EXIT
./target/release/domactl obs --schedule "r2 w3 r2 r1 w0 r3 w2 r0" --algo da > "$obs_dir/obs1.json"
./target/release/domactl obs --schedule "r2 w3 r2 r1 w0 r3 w2 r0" --algo da > "$obs_dir/obs2.json"
if ! cmp -s "$obs_dir/obs1.json" "$obs_dir/obs2.json"; then
    echo "verify: FAILED (domactl obs output differs across identical runs)" >&2
    exit 1
fi
for key in '"metrics"' '"events"' '"dropped_events"'; do
    if ! grep -q "$key" "$obs_dir/obs1.json"; then
        echo "verify: FAILED (domactl obs JSON missing $key)" >&2
        exit 1
    fi
done

# ---------------------------------------------------------------------------
# Tournament smoke: a small seven-entrant tournament must run end to end
# through the protocol sim, and the JSON export must be byte-identical
# across two runs — the stable-bench contract for BENCH_tournament.json.
# ---------------------------------------------------------------------------
./target/release/domactl tournament --n 5 --len 12 --seed 3 --format json > "$obs_dir/tour1.json"
./target/release/domactl tournament --n 5 --len 12 --seed 3 --format json > "$obs_dir/tour2.json"
if ! cmp -s "$obs_dir/tour1.json" "$obs_dir/tour2.json"; then
    echo "verify: FAILED (domactl tournament JSON differs across identical runs)" >&2
    exit 1
fi
for key in '"group": "tournament"' '"algo": "sa"' '"algo": "da"' '"algo": "convergent"' \
    '"algo": "write-invalidate"' '"algo": "cost-oblivious"' '"algo": "mobile-mirror"' \
    '"algo": "clustered"' '"attachment": "tournament/spec"'; do
    if ! grep -qF "$key" "$obs_dir/tour1.json"; then
        echo "verify: FAILED (domactl tournament JSON missing $key)" >&2
        exit 1
    fi
done

# ---------------------------------------------------------------------------
# Scenario wall: every builtin scenario runs end to end through the
# protocol sim with obs attached; `domactl scenario` exits non-zero if any
# expected-invariant block (cost vs OPT, t-availability, churn ceilings,
# obs parity, golden digest) is violated, and the exported JSON — obs
# snapshot included — must be byte-identical across two invocations: the
# golden-trace determinism contract, checked end to end through the CLI.
# ---------------------------------------------------------------------------
if ! ./target/release/domactl scenario all --format json > "$obs_dir/scen1.json"; then
    echo "verify: FAILED (a builtin scenario violated its expected-invariant block)" >&2
    exit 1
fi
./target/release/domactl scenario all --format json > "$obs_dir/scen2.json"
if ! cmp -s "$obs_dir/scen1.json" "$obs_dir/scen2.json"; then
    echo "verify: FAILED (domactl scenario JSON differs across identical runs)" >&2
    exit 1
fi
for key in '"scenario": "append-only-6-2"' '"scenario": "trace-replay"' \
    '"scenario": "mobile-handoff"' '"passed": true' '"digest": "0x'; do
    if ! grep -qF "$key" "$obs_dir/scen1.json"; then
        echo "verify: FAILED (domactl scenario JSON missing $key)" >&2
        exit 1
    fi
done
if grep -qF '"passed": false' "$obs_dir/scen1.json"; then
    echo "verify: FAILED (a builtin scenario reported passed: false)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Cluster-parity wall: the real runtime (doma-net) must reproduce the
# deterministic sim twin exactly — §6.2 append-only scenario over Unix
# domain sockets and over TCP on loopback, 3 nodes, same seed and request
# schedule ⇒ identical allocation-scheme trajectory, cost totals and
# protocol obs metrics. Fully offline (loopback only). Sandboxes that
# refuse sockets print a notice and skip; anything else is a wall failure.
# ---------------------------------------------------------------------------
for transport in uds tcp; do
    out="$obs_dir/cluster-$transport.txt"
    if ! ./target/release/domactl cluster append-only-6-2 --nodes 3 --transport "$transport" > "$out" 2>&1; then
        cat "$out" >&2
        echo "verify: FAILED ($transport cluster diverged from the sim oracle)" >&2
        exit 1
    fi
    if grep -q "notice: sockets unavailable" "$out"; then
        echo "verify: NOTICE (sockets unavailable in this sandbox; $transport cluster-parity wall skipped)"
    elif ! grep -q "parity: MATCH" "$out"; then
        cat "$out" >&2
        echo "verify: FAILED ($transport cluster run produced no parity verdict)" >&2
        exit 1
    fi
done

# ---------------------------------------------------------------------------
# Exhaustive small-bound model check: every built-in doma-check scenario
# (3–5 processors, up to 6 requests) must be explored to completion with
# zero violations. Exit 1 = counterexample (the tool prints the replayable
# trace); exit 2 = a budget was hit, which also fails tier-1 because the
# built-ins are sized to finish.
# ---------------------------------------------------------------------------
if ! cargo run -q --release --offline -p doma-check --bin doma-check; then
    echo "verify: FAILED (doma-check exhaustive small-bound scenarios)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Shard parity: object-sharded execution must reproduce the sequential
# driver exactly — report, holders and obs registry — for every shard
# count × placement cell, then once more with DOMA_SHARDS=1 forcing the
# serial in-thread worker path (the CI fallback for constrained boxes).
# ---------------------------------------------------------------------------
if ! cargo test -q --offline -p doma-protocol --test shard_parity; then
    echo "verify: FAILED (shard parity matrix)" >&2
    exit 1
fi
if ! DOMA_SHARDS=1 cargo test -q --offline -p doma-protocol --test shard_parity; then
    echo "verify: FAILED (shard parity under DOMA_SHARDS=1 serial fallback)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Fault matrix: 32 seeded fault plans per cell over the full tournament
# roster — {SA,DA} × {crash,partition,drop} plus two fault classes per
# adaptive allocator and the pinned per-allocator regression episodes —
# with the invariant checker auditing every step. On a violation the
# harness itself prints the exact `DOMA_FAULT_SEED=…` replay line; the hint
# below covers infrastructure failures (build breaks, panics outside the
# harness).
# ---------------------------------------------------------------------------
if ! DOMA_FAULT_SEEDS=32 cargo test -q --offline --test fault_torture; then
    echo "verify: FAILED (fault matrix)" >&2
    echo "hint: rerun one episode with DOMA_FAULT_SEED=0x<seed> cargo test --test fault_torture <cell>," >&2
    echo "      using the seed from the 'replay:' line above; DOMA_FAULT_TRACE=1 dumps per-step state." >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Trace-determinism gate: `domactl trace` must export byte-identical
# Chrome trace-event JSON across two invocations of the same seeded
# scenario — the doma-trace contract (virtual-tick timestamps, stable
# span/message ordering), checked end to end through the CLI.
# ---------------------------------------------------------------------------
./target/release/domactl trace append-only-6-2 --format chrome > "$obs_dir/trace1.json"
./target/release/domactl trace append-only-6-2 --format chrome > "$obs_dir/trace2.json"
if ! cmp -s "$obs_dir/trace1.json" "$obs_dir/trace2.json"; then
    echo "verify: FAILED (domactl trace Chrome JSON differs across identical runs)" >&2
    exit 1
fi
for key in '"traceEvents"' '"ph": "X"' '"protocol.request"' '"cp": "1"'; do
    if ! grep -qF "$key" "$obs_dir/trace1.json"; then
        echo "verify: FAILED (domactl trace Chrome JSON missing $key)" >&2
        exit 1
    fi
done
if ! ./target/release/domactl trace append-only-6-2 --top 5 > "$obs_dir/trace_table.txt"; then
    echo "verify: FAILED (domactl trace table report)" >&2
    exit 1
fi
if ! grep -q "slowest 5 of" "$obs_dir/trace_table.txt"; then
    echo "verify: FAILED (domactl trace table missing the slowest-K report)" >&2
    exit 1
fi

# ---------------------------------------------------------------------------
# Perf-regression gate: re-run the phase profiler bench and compare its
# medians against the committed BENCH_prof.json baseline; any benchmark
# whose median regressed by more than 25% (or disappeared) fails the
# wall. The committed baseline itself must attribute at least 90% of the
# sharded/1 − sequential delta to named phases.
# ---------------------------------------------------------------------------
frac=$(grep -o '"attributed_fraction": [0-9.]*' BENCH_prof.json | awk '{print $2}')
if [ -z "$frac" ] || ! awk -v f="$frac" 'BEGIN { exit !(f >= 0.9) }'; then
    echo "verify: FAILED (BENCH_prof.json attributed_fraction '$frac' < 0.9)" >&2
    exit 1
fi
if ! DOMA_BENCH_JSON="$obs_dir/prof.json" cargo bench -q --offline -p doma-bench --bench shard_prof > "$obs_dir/prof.log" 2>&1; then
    cat "$obs_dir/prof.log" >&2
    echo "verify: FAILED (shard_prof bench run)" >&2
    exit 1
fi
if ! ./target/release/domactl perf "$obs_dir/prof.json" --baseline BENCH_prof.json --threshold 0.25; then
    echo "verify: FAILED (perf regression vs committed BENCH_prof.json baseline)" >&2
    exit 1
fi

echo "verify: OK"
