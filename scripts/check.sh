#!/usr/bin/env bash
# One-command correctness gate:
#
#   scripts/check.sh [--jobs N]
#
#   1. pwu_lint        — flow-aware static analysis over the whole tree
#                        (lock-graph, blocking-under-lock, rng-stream-
#                        discipline, killpoint-safety + the line rules)
#                        plus the analyzer's own unit suite
#                        (`ctest --preset lint`)
#   2. asan-fast       — unit suite under Address/UB sanitizers + contracts
#   3. tsan-fast       — unit suite (incl. race stress tests) under
#                        ThreadSanitizer + contracts
#   4. chaos           — deterministic crash-injection harness: kill points
#                        mid-checkpoint-write and mid-batch, resume must be
#                        bit-identical (Release build, `ctest -L chaos`)
#   5. soak + fuzz     — overload soak harness under both sanitizers
#                        (`ctest -L soak` on the asan and tsan builds) plus a
#                        long seeded campaign of the protocol fuzzer
#   6. shard           — multi-process router chaos: real forked workers
#                        killed at armed kill points; the client-visible
#                        stream must stay bit-identical to an unkilled
#                        control fleet (`ctest -L shard`)
#   7. simd            — the full fast suite re-run with PWU_SIMD_LEVEL=
#                        scalar (Release and asan builds): dispatch has two
#                        tiers, the scalar oracle and the AVX2 kernel, and
#                        this keeps the oracle tested on hosts whose CPUs
#                        would otherwise always take AVX2
#   8. ha              — warm-standby replication and live ring growth:
#                        shadow promotion, staleness fallback, and
#                        mid-traffic session migration, all in-process
#                        (`ctest -L ha` on the Release and tsan builds)
#   9. netchaos        — seeded network-fault schedules (loss, duplication,
#                        reordering, corruption, truncation, partitions)
#                        against the pwu1 framing, idempotency windows, and
#                        fencing epochs; client streams must stay bit-exact
#                        and split-brain writes must be fenced (`ctest -L
#                        netchaos` on the Release and asan builds)
#
# Contracts (PWU_REQUIRE/PWU_ENSURE/PWU_ASSERT) are active in both sanitizer
# passes because those presets build Debug. Exits non-zero on the first
# failing gate.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
if [[ "${1:-}" == "--jobs" && -n "${2:-}" ]]; then
  jobs="$2"
fi

echo "== gate 1/9: pwu_lint (flow-aware) =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs" --target pwu_lint >/dev/null
./build/tools/pwu_lint --root . --baseline tools/lint/pwu_lint.baseline
cmake --build --preset default -j "$jobs" --target pwu_tests >/dev/null
ctest --preset lint -j "$jobs"

echo "== gate 2/9: asan-fast =="
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$jobs" >/dev/null
ctest --preset asan-fast -j "$jobs"

echo "== gate 3/9: tsan-fast =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs" >/dev/null
ctest --preset tsan-fast -j "$jobs"

echo "== gate 4/9: chaos =="
cmake --build --preset default -j "$jobs" --target pwu_chaos_tests >/dev/null
ctest --preset chaos -j "$jobs"

echo "== gate 5/9: soak + fuzz =="
ctest --preset asan-soak -j "$jobs"
ctest --preset tsan-soak -j "$jobs"
cmake --build --preset default -j "$jobs" --target pwu_fuzz >/dev/null
./build/tools/pwu_fuzz --iters 20000 --seed 1

echo "== gate 6/9: shard (router failover chaos) =="
cmake --build --preset default -j "$jobs" --target pwu_shard_tests \
  --target pwu_serve >/dev/null
ctest --preset shard -j "$jobs"
ctest --preset asan-shard -j "$jobs"

echo "== gate 7/9: simd (scalar dispatch fallback) =="
cmake --build --preset default -j "$jobs" --target pwu_tests >/dev/null
ctest --preset simd -j "$jobs"
ctest --preset asan-simd -j "$jobs"

echo "== gate 8/9: ha (warm standby + ring growth) =="
cmake --build --preset default -j "$jobs" --target pwu_ha_tests >/dev/null
cmake --build --preset tsan -j "$jobs" --target pwu_ha_tests >/dev/null
ctest --preset ha -j "$jobs"
ctest --preset tsan-ha -j "$jobs"

echo "== gate 9/9: netchaos (fault injection vs framing + fencing) =="
cmake --build --preset default -j "$jobs" --target pwu_netchaos_tests \
  --target pwu_serve >/dev/null
cmake --build --preset asan -j "$jobs" --target pwu_netchaos_tests >/dev/null
ctest --preset netchaos -j "$jobs"
ctest --preset asan-netchaos -j "$jobs"

echo "check.sh: all correctness gates passed"
