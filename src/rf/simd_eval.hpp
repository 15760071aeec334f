// Runtime-dispatched SIMD kernel for the flat tree-evaluation hot path.
//
// This is the only sanctioned doorway to vector intrinsics in the tree
// engine (enforced by the pwu_lint rule `no-unchecked-simd`): callers pick
// a kernel through flat_tree_kernel() and never touch <immintrin.h>
// themselves. Two tiers exist:
//
//   Scalar  portable reference and bit-exact oracle — the 8-row
//           interleaved lockstep walk the pre-SIMD engine ran, restated
//           over a contiguous row block;
//   AVX2    32 rows per tree level as eight 4-lane gather groups.
//
// Both tiers route rows identically (the same `value <= threshold`
// ordered-compare semantics, NaN to the right) and emit the same leaf
// doubles, so the dispatch level never changes a prediction bit. Kernels
// handle numerical splits only: trees containing categorical splits take
// the llround set-membership walk in flat_forest.cpp regardless of level.
//
// Selection: AVX2 when it was compiled in (the compiler accepts -mavx2 on
// an x86 target) and the running CPU supports it, scalar otherwise; the
// PWU_SIMD_LEVEL environment variable (scalar|avx2) or
// set_level_override() clamps it down — that is how the `simd` ctest
// preset pins the scalar fallback on AVX2 hosts, and how bench/micro_rf
// sweeps the matrix. An unrecognised PWU_SIMD_LEVEL logs a warning and
// clamps to scalar.

#pragma once

#include <cstddef>
#include <optional>

namespace pwu::rf {

struct FlatNode;

namespace simd {

enum class Level { Scalar = 0, Avx2 = 1 };

const char* level_name(Level level);

/// Strongest tier both compiled in and supported by this CPU.
Level detected_level();

/// detected_level() clamped by the PWU_SIMD_LEVEL environment variable
/// (read once) and by any set_level_override() — what dispatch actually
/// uses.
Level active_level();

/// Test/bench hook: force a level (still clamped to detected_level()).
void set_level_override(Level level);
void clear_level_override();

/// Evaluates one tree (numerical splits only) over `n` consecutive rows:
/// row r starts at rows + r * stride. out[r] receives the leaf payload.
using FlatTreeKernel = void (*)(const FlatNode* nodes, const double* rows,
                                std::size_t stride, std::size_t n,
                                double* out);

/// Kernel for `level`, clamped to detected_level().
FlatTreeKernel flat_tree_kernel(Level level);

/// Parses "scalar"/"avx2" (nullopt otherwise).
std::optional<Level> parse_level(const char* name);

namespace detail {

/// AVX2 tier, defined in simd_eval_avx2.cpp — the one TU built with
/// -mavx2. Only referenced by dispatch when PWU_SIMD_HAS_AVX2 is set;
/// never call directly (the running CPU may not support AVX2).
void flat_tree_avx2(const FlatNode* nodes, const double* rows,
                    std::size_t stride, std::size_t n, double* out);

}  // namespace detail

}  // namespace simd

}  // namespace pwu::rf
