#!/usr/bin/env bash
# One-shot gate: build, test, lint. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt ==="
cargo fmt --check

echo "=== cargo build (release) ==="
cargo build --workspace --release

echo "=== cargo test ==="
cargo test --workspace -q

echo "=== cargo clippy ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== chaos determinism (fixed seed, two runs) ==="
# The seeded chaos session must replay bit-identically: same seed, same
# journal digest. A mismatch means nondeterminism leaked into the retry /
# fault path — the root cause of flaky chaos tests — so fail loudly.
CHAOS_SEED=42
digest_a=$(./target/release/chaos_session --seed "$CHAOS_SEED")
digest_b=$(./target/release/chaos_session --seed "$CHAOS_SEED")
if [[ "$digest_a" != "$digest_b" ]]; then
    echo "chaos digests diverged for seed $CHAOS_SEED: $digest_a vs $digest_b" >&2
    exit 1
fi
echo "chaos digest stable: $digest_a"

echo "=== admission determinism (fixed seed, two runs) ==="
# Same contract for the multi-tenant path: the seeded admission session
# (DRR drain order, virtual-time throttling, per-tenant served counts)
# must replay bit-identically.
ADMISSION_SEED=42
digest_a=$(./target/release/admission_session --seed "$ADMISSION_SEED")
digest_b=$(./target/release/admission_session --seed "$ADMISSION_SEED")
if [[ "$digest_a" != "$digest_b" ]]; then
    echo "admission digests diverged for seed $ADMISSION_SEED: $digest_a vs $digest_b" >&2
    exit 1
fi
echo "admission digest stable: $digest_a"

echo "=== lifecycle determinism (fixed seed, kill mid-trace, two runs) ==="
# Crash recovery must converge: kill the worker at the same submission in
# two runs and the post-recovery digest (accepted ids, tenant books,
# completion totals) must match. The binary itself asserts zero loss of
# accepted invocations; a digest mismatch here means crash timing leaked
# into recovered state.
LIFECYCLE_SEED=42
digest_a=$(./target/release/lifecycle_session --seed "$LIFECYCLE_SEED" --kill-at 12)
digest_b=$(./target/release/lifecycle_session --seed "$LIFECYCLE_SEED" --kill-at 12)
if [[ "$digest_a" != "$digest_b" ]]; then
    echo "lifecycle digests diverged for seed $LIFECYCLE_SEED: $digest_a vs $digest_b" >&2
    exit 1
fi
echo "lifecycle digest stable: $digest_a"

echo "=== autoscale determinism (fixed seed, two runs) ==="
# The elastic fleet must replay bit-identically: same seed, same scale
# decisions, same fleet trajectory, same serve totals. The binary itself
# asserts the burst contract (1 -> >=3 -> 1, zero dropped invocations); a
# digest mismatch means worker spawn/drain timing leaked into the control
# loop.
AUTOSCALE_SEED=42
digest_a=$(./target/release/autoscale_session --seed "$AUTOSCALE_SEED")
digest_b=$(./target/release/autoscale_session --seed "$AUTOSCALE_SEED")
if [[ "$digest_a" != "$digest_b" ]]; then
    echo "autoscale digests diverged for seed $AUTOSCALE_SEED: $digest_a vs $digest_b" >&2
    exit 1
fi
echo "autoscale digest stable: $digest_a"

echo "=== telemetry determinism (fixed seed, two runs) ==="
# The canonical telemetry stream must replay bit-identically: same seed,
# same per-trace event sequences, same per-kind counts, same flight-
# recorder snapshots. A mismatch means thread timing leaked into the
# pipeline (e.g. digesting raw seqnos, which race across threads).
TELEMETRY_SEED=42
digest_a=$(./target/release/telemetry_session --seed "$TELEMETRY_SEED")
digest_b=$(./target/release/telemetry_session --seed "$TELEMETRY_SEED")
if [[ "$digest_a" != "$digest_b" ]]; then
    echo "telemetry digests diverged for seed $TELEMETRY_SEED: $digest_a vs $digest_b" >&2
    exit 1
fi
echo "telemetry digest stable: $digest_a"

echo "=== conformance replay (fixed seed, two runs) ==="
# Replays seeded chaos / crash-recovery / autoscale / DRR session streams
# through the executable reference models (WAL, DRR, breaker, fleet). The
# binary exits non-zero on any model violation, printing the first
# offending event with its preceding context; the digest double-run
# asserts the replay itself is deterministic.
CONFORMANCE_SEED=42
digest_a=$(./target/release/conformance_session --seed "$CONFORMANCE_SEED")
digest_b=$(./target/release/conformance_session --seed "$CONFORMANCE_SEED")
if [[ "$digest_a" != "$digest_b" ]]; then
    echo "conformance digests diverged for seed $CONFORMANCE_SEED: $digest_a vs $digest_b" >&2
    exit 1
fi
echo "conformance digest stable: $digest_a"

echo "=== cache determinism (fixed seed, two runs) ==="
# The result-cache session (two tenants, seeded repeat mix, invalidation
# on re-registration, full stream through the conformance models) must
# replay bit-identically. The binary itself asserts the >=80% repeat hit
# rate, disjoint tenant partitions, and dispatched == misses + bypasses.
CACHE_SEED=42
digest_a=$(./target/release/cache_session --seed "$CACHE_SEED")
digest_b=$(./target/release/cache_session --seed "$CACHE_SEED")
if [[ "$digest_a" != "$digest_b" ]]; then
    echo "cache digests diverged for seed $CACHE_SEED: $digest_a vs $digest_b" >&2
    exit 1
fi
echo "cache digest stable: $digest_a"

echo "=== storage fault determinism (fixed seed, two runs) ==="
# Drives the WAL through the full disk-fault menu — fsync failures, a torn
# write, an ENOSPC window with degraded-mode re-arming, a 250ms stall shed,
# and a mid-trace kill with a torn segment tail — with the conformance
# checker riding the telemetry bus online. The binary itself asserts zero
# model violations and zero lost accepted invocations; the double run
# asserts the seeded fault schedule replays bit-identically.
STORAGE_SEED=42
digest_a=$(./target/release/storage_session --seed "$STORAGE_SEED" 2>/dev/null)
digest_b=$(./target/release/storage_session --seed "$STORAGE_SEED" 2>/dev/null)
if [[ "$digest_a" != "$digest_b" ]]; then
    echo "storage digests diverged for seed $STORAGE_SEED: $digest_a vs $digest_b" >&2
    exit 1
fi
echo "storage digest stable: $digest_a"

echo "=== dispatch determinism (fixed seed, mid-run worker kill, two runs) ==="
# Pull-mode dispatch under a worker crash: two pull loops lease from one
# WAL-backed plane, one is killed mid-flight, and its abandoned leases must
# expire, requeue exactly once, and complete on the survivor. The binary
# itself asserts zero lost accepted invocations, zero conformance
# violations in the lease stream, and an empty WAL pending set; the digest
# double-run asserts the accepted id/tenant map is a pure function of the
# seed (which leases the crash strands must not leak in).
DISPATCH_SEED=42
digest_a=$(./target/release/dispatch_session --seed "$DISPATCH_SEED" 2>/dev/null)
digest_b=$(./target/release/dispatch_session --seed "$DISPATCH_SEED" 2>/dev/null)
if [[ "$digest_a" != "$digest_b" ]]; then
    echo "dispatch digests diverged for seed $DISPATCH_SEED: $digest_a vs $digest_b" >&2
    exit 1
fi
echo "dispatch digest stable: $digest_a"

echo "=== conformance mutation smoke (checker must catch seeded corruption) ==="
# Flips one event in known-good streams (duplicate completion, dropped
# append, reordered result, flipped ok-bit, illegal breaker edge, kill of
# a draining worker, double-attach, stale cache hit, double-lease,
# dropped requeue) plus two on-disk corruptions (bit-flipped WAL record,
# truncated segment) and requires the checker — or the frame scanner — to
# flag each with the expected rule. A silent pass here means the checker
# has gone blind and the replay gate above is vacuous.
./target/release/conformance_session --mutate

echo "=== dispatch ablation (pull/hybrid p99 <= push p99) ==="
# One seeded heavy-tailed workload through push (CH-BL with a stale load
# signal), pull (the real PullPlane), and hybrid planes. The binary
# asserts the tail-latency claim the pull plane exists for.
./target/release/abl_dispatch

echo "=== overhead budget (p50/p99 per Table-1 group) ==="
# Replays a fixed warm trace over the real HTTP hot path and checks each
# Table-1 group's p50/p99 dispatch overhead (from GET /breakdown) against
# wide-headroom budgets. Exits non-zero on any breach.
./target/release/abl_overhead_budget

echo "=== cache ablation (hit p50 < dispatch p50, >=80% repeat hits) ==="
# Measures the real hot path with the result cache on: a hit must beat a
# warm dispatch at p50, the repeated phase must serve >=80% from cache,
# and interleaved tenants on identical fqdn+args must never cross.
./target/release/abl_cache

echo "=== perfbench smoke (each workload, 2 s, end-to-end metrics) ==="
# Stands the real stack up on every benchmark workload over loopback HTTP.
# perfbench checks its generator and every reply and exits non-zero on a
# failure, so the transports the hot path rides (blocking accept, pooled
# lease connections, on-demand group commit) are exercised end to end.
for workload in warm-direct durable-direct push-mix pull-mix; do
    cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 >/dev/null
done

echo "all checks passed"
