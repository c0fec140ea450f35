#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before review.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
# --workspace: the root Cargo.toml is both a workspace and a package, so
# a bare `cargo build` would skip member-only binaries like profile_run.
cargo build --release --workspace

echo "== fuzz smoke: differential oracle, bounded (500 queries/domain) =="
SB_FUZZ_COUNT=500 cargo test -q -p sb-fuzz

echo "== cargo test -q (workspace) =="
cargo test -q --workspace

echo "== sbbench smoke: every benchmark workload and oracle at smoke size =="
# The benchmark is a workspace of its own, so the workspace tests above
# do not build it. Its smoke tests run all four workloads at Tiny size
# against their oracles (error rate 0, every declared metric emitted), so
# a change that breaks a workload or an oracle fails here rather than at
# the next benchmark run. Drift in generated data is pinned separately
# by crates/data/tests/data_identity.rs.
(cd sbbench && cargo test --offline -q)

echo "== plan snapshots: regenerate and diff committed goldens =="
SB_UPDATE_PLANS=1 cargo test -q --test plan_snapshots
# `git diff` alone misses a regenerated golden that was never committed;
# `git status` also lists untracked files.
git diff --exit-code -- tests/goldens/plans && [ -z "$(git status --porcelain -- tests/goldens/plans)" ] || {
    git status --short -- tests/goldens/plans >&2
    echo "EXPLAIN plan goldens drifted; commit the regenerated files if intentional" >&2
    exit 1
}

echo "== analyzed plan snapshots: regenerate, diff, and pin at 1 and 8 threads =="
# EXPLAIN ANALYZE goldens pin workers/morsel size inside the test, so the
# rendered operator counts must be byte-stable at any ambient thread
# count: regenerate under 8 threads, then re-check (no regen) under 1.
RAYON_NUM_THREADS=8 SB_UPDATE_PLANS=1 cargo test -q --test plan_snapshots_analyzed
git diff --exit-code -- tests/goldens/plans_analyzed \
    && [ -z "$(git status --porcelain -- tests/goldens/plans_analyzed)" ] || {
    git status --short -- tests/goldens/plans_analyzed >&2
    echo "EXPLAIN ANALYZE goldens drifted; commit the regenerated files if intentional" >&2
    exit 1
}
RAYON_NUM_THREADS=1 cargo test -q --test plan_snapshots_analyzed

echo "== obs smoke: SB_OBS=summary profile_run on one domain =="
report="$(mktemp)"
trap 'rm -f "$report"' EXIT
SB_OBS=summary ./target/release/profile_run --quick --domain sdss > "$report"
./target/release/profile_run --validate "$report"
grep -q '"engine.scan.rows"' "$report" || {
    echo "profile_run report is missing engine counters" >&2
    exit 1
}
grep -q '"pipeline.pairs_emitted"' "$report" || {
    echo "profile_run report is missing pipeline counters" >&2
    exit 1
}

echo "== columnar smoke: batch engine live under default options =="
# ExecOptions::default() has columnar on; the report must carry batch
# counters, proving the vectorized path executed rather than silently
# falling back to the row engine everywhere. (The fuzz smoke above
# already differentially checks the two columnar configurations of the
# 3-configuration matrix against the reference interpreter.)
grep -q '"engine.columnar.selects"' "$report" || {
    echo "profile_run report is missing columnar batch counters (batch engine never ran)" >&2
    exit 1
}
# Every block of the quick run is in the batch engine's shape and kernel
# set, so none may fall back to the row engine.
if grep -q '"engine.columnar.fallbacks"' "$report"; then
    echo "profile_run report has engine.columnar.fallbacks (a block fell back to the row engine)" >&2
    exit 1
fi

echo "== parallel smoke: morsel dispatch live at 8 threads, absent at 1 =="
# Force multi-morsel dispatch on the small fuzz tables (SB_MORSEL_ROWS)
# and check the engine's byte-determinism contract end to end at both
# thread counts, plus the obs counters that prove morsels actually ran.
# The subquery campaign's env-resolved parallel configuration picks up
# the same thread count and morsel size.
for threads in 1 8; do
    RAYON_NUM_THREADS=$threads SB_MORSEL_ROWS=7 SB_FUZZ_COUNT=200 \
        cargo test -q -p sb-fuzz --test parallel_equivalence
    RAYON_NUM_THREADS=$threads SB_MORSEL_ROWS=7 SB_FUZZ_COUNT=200 \
        cargo test -q -p sb-fuzz --test subquery_differential
    # Capped executions against the uncapped prefix: the index-based
    # output stage over multi-morsel concatenated selections.
    RAYON_NUM_THREADS=$threads SB_MORSEL_ROWS=7 SB_FUZZ_COUNT=200 \
        cargo test -q -p sb-fuzz --test row_cap_differential
    # The engine's regression cases under default options: with 7-row
    # morsels at 8 threads, real multi-morsel hash-join build and probe.
    RAYON_NUM_THREADS=$threads SB_MORSEL_ROWS=7 \
        cargo test -q -p sb-engine --test fuzz_regressions
    # Demand-driven generation against its eager oracle: same queries and
    # pairs at either thread count.
    RAYON_NUM_THREADS=$threads cargo test -q --test generation_oracle
done
par_report="$(mktemp)"
serial_report="$(mktemp)"
RAYON_NUM_THREADS=8 SB_MORSEL_ROWS=7 SB_OBS=summary \
    ./target/release/profile_run --quick --domain sdss > "$par_report"
grep -q '"engine.parallel.morsels"' "$par_report" || {
    echo "profile_run report is missing morsel counters (parallel path never dispatched)" >&2
    exit 1
}
# One worker means one morsel: the same forced-small morsel size at one
# thread must run every operator inline, so no engine.parallel counter
# may appear.
RAYON_NUM_THREADS=1 SB_MORSEL_ROWS=7 SB_OBS=summary \
    ./target/release/profile_run --quick --domain sdss > "$serial_report"
if grep -q '"engine\.parallel\.' "$serial_report"; then
    echo "one-worker profile_run report has engine.parallel counters (morsels dispatched)" >&2
    exit 1
fi
# Counters are deterministic at any thread count (DESIGN §10): apart
# from the engine.parallel.* dispatch counters, the 8-thread and
# 1-thread reports must be identical.
diff <(grep -v '"engine\.parallel\.' "$par_report") "$serial_report" || {
    echo "profile_run counters depend on the thread count (beyond engine.parallel.*)" >&2
    exit 1
}
rm -f "$par_report" "$serial_report"

echo "== ab_pairs: syntax only =="
# The alternating-pairs A/B script builds two trees and runs minutes of
# benchmark pairs, too slow for this gate; parse it so it cannot rot.
bash -n scripts/ab_pairs

echo "== bench baseline shape: BENCH_engine.json =="
# The committed criterion record (regenerated by
# CRITERION_JSON=$PWD/BENCH_engine.json cargo bench -p sb-bench) must be a
# non-empty array of uniquely named entries with a positive ns_per_iter
# inside its sample quartiles and the host's core count, and must carry
# the serial-vs-parallel scaling curve.
jq -e '
    type == "array" and length > 0
    and all(.[]; (.group | type) == "string" and (.name | type) == "string"
        and (.ns_per_iter | type) == "number" and .ns_per_iter > 0
        and (.ns_q1 | type) == "number" and (.ns_q3 | type) == "number"
        and .ns_q1 <= .ns_per_iter and .ns_per_iter <= .ns_q3
        and (.cores | type) == "number" and .cores >= 1)
    and (map([.group, .name]) | unique | length) == length
    and any(.[]; .group == "scaling_curve")
' BENCH_engine.json > /dev/null || {
    echo "BENCH_engine.json is malformed or missing the scaling_curve group" >&2
    exit 1
}

echo "== cargo clippy -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings =="
# A doc link to a deleted, renamed or private item fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "All checks passed."
