#pragma once

// Batched distance kernels over structure-of-arrays coordinates.
//
// This header is the single source of truth for the library's two metrics:
// `squared_distance` (point.hpp) and `torus_squared_distance` (torus.hpp)
// both delegate to the scalar cores below, and every batched (one candidate
// against a contiguous SoA run) kernel reproduces the scalar core's exact
// floating-point operation sequence PER ELEMENT:
//
//   sum = 0; for each axis i in 0..D-1: d = a_i - b_i; sum += d * d
//
// The accumulation order is per-axis, fixed, and identical in the scalar,
// portable-batch, and AVX2 paths, so every pair's d2 is bit-identical no
// matter which path computed it. The AVX2 kernels are lane-wise translations
// of the same sequence — subtract, multiply, add as separate correctly-
// rounded IEEE-754 operations. Fused multiply-add is deliberately never
// used (it would change the rounding of d*d + sum), and the build compiles
// with -ffp-contract=off so the compiler cannot introduce contractions
// behind our back either (see DESIGN.md §15 for the full bit-identity
// argument, including why andnot-abs and min_pd match std::abs/std::min
// on this domain).
//
// This is the ONLY file in src/ allowed to include SIMD intrinsics headers
// or query CPU features (enforced by the manet-lint `simd-confinement`
// rule): every other layer calls these kernels and stays ISA-agnostic.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#define MANET_KERNELS_X86 1
#include <immintrin.h>  // manet-lint: allow(simd-confinement) — this is the confinement point
#else
#define MANET_KERNELS_X86 0
#endif

namespace manet::kernels {

/// One `const double*` per axis of a structure-of-arrays coordinate block.
template <int D>
using AxisPointers = std::array<const double*, static_cast<std::size_t>(D)>;

/// Mutable variant, for kernels that update coordinates in place.
template <int D>
using MutableAxisPointers = std::array<double*, static_cast<std::size_t>(D)>;

// ---------------------------------------------------------------------------
// Scalar cores — the definition of the metric. Everything else matches these.
// ---------------------------------------------------------------------------

/// Squared Euclidean distance between two D-tuples stored contiguously.
template <int D>
constexpr double squared_distance_scalar(const double* a, const double* b) noexcept {
  double sum = 0.0;
  for (int i = 0; i < D; ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Squared distance on the flat torus [0, side]^D. The caller validates
/// side > 0 (torus.hpp keeps the MANET_EXPECTS contract at the public API).
template <int D>
double torus_squared_distance_scalar(const double* a, const double* b, double side) noexcept {
  double sum = 0.0;
  for (int i = 0; i < D; ++i) {
    double d = std::abs(a[i] - b[i]);
    d = std::min(d, side - d);
    sum += d * d;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Per-element metrics over SoA axes: the scalar core's operation sequence
// for element k of a run. The portable distance kernels and the AVX2 tails
// below are loops over these, so there is one scalar sequence to match.
// ---------------------------------------------------------------------------

namespace detail {

template <int D>
inline double squared_distance_at(const AxisPointers<D>& axes, std::size_t k,
                                  const double* q) noexcept {
  double sum = 0.0;
  for (int i = 0; i < D; ++i) {
    const double d = axes[static_cast<std::size_t>(i)][k] - q[i];
    sum += d * d;
  }
  return sum;
}

template <int D>
inline double torus_squared_distance_at(const AxisPointers<D>& axes, std::size_t k,
                                        const double* q, double side) noexcept {
  double sum = 0.0;
  for (int i = 0; i < D; ++i) {
    double d = std::abs(axes[static_cast<std::size_t>(i)][k] - q[i]);
    d = std::min(d, side - d);
    sum += d * d;
  }
  return sum;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Portable batch kernels — plain loops in the same per-element order, written
// over SoA axes so the auto-vectorizer can work even without the AVX2 path.
// ---------------------------------------------------------------------------

/// out[k] = squared_distance(axes[.][k], q) for k in [0, count).
template <int D>
void batch_squared_distance_portable(const AxisPointers<D>& axes, std::size_t count,
                                     const double* q, double* out) noexcept {
  for (std::size_t k = 0; k < count; ++k) out[k] = detail::squared_distance_at<D>(axes, k, q);
}

/// out[k] = torus_squared_distance(axes[.][k], q, side) for k in [0, count).
template <int D>
void batch_torus_squared_distance_portable(const AxisPointers<D>& axes, std::size_t count,
                                           const double* q, double side, double* out) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    out[k] = detail::torus_squared_distance_at<D>(axes, k, q, side);
  }
}

// Fused in-radius kernels: the batched distance plus the `d2 <= r2` filter in
// one pass. For k in [0, count) the kernel computes d2 exactly as the batch
// kernels do and, when !(d2 > r2), appends k to hit_index and d2 to hit_d2;
// it returns the number of hits. Both outputs are written without a branch —
// every element stores unconditionally and the hit count advances by the
// comparison result — so both buffers need room for `count` entries. The
// hits come out in ascending k, and each hit_d2 is the same 64 bits the
// scalar core gives for that pair.

template <int D>
std::size_t batch_squared_distance_within_portable(const AxisPointers<D>& axes,
                                                   std::size_t count, const double* q,
                                                   double r2, std::uint32_t* hit_index,
                                                   double* hit_d2) noexcept {
  std::size_t hits = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const double d2 = detail::squared_distance_at<D>(axes, k, q);
    hit_index[hits] = static_cast<std::uint32_t>(k);
    hit_d2[hits] = d2;
    hits += static_cast<std::size_t>(!(d2 > r2));
  }
  return hits;
}

template <int D>
std::size_t batch_torus_squared_distance_within_portable(const AxisPointers<D>& axes,
                                                         std::size_t count, const double* q,
                                                         double side, double r2,
                                                         std::uint32_t* hit_index,
                                                         double* hit_d2) noexcept {
  std::size_t hits = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const double d2 = detail::torus_squared_distance_at<D>(axes, k, q, side);
    hit_index[hits] = static_cast<std::uint32_t>(k);
    hit_d2[hits] = d2;
    hits += static_cast<std::size_t>(!(d2 > r2));
  }
  return hits;
}

// ---------------------------------------------------------------------------
// AVX2 batch kernels. Lane-wise translation of the scalar core: every lane
// performs the identical scalar operation sequence, so results are bitwise
// equal. No FMA — see the header comment.
// ---------------------------------------------------------------------------

#if MANET_KERNELS_X86

namespace detail {

/// Squared distances of elements k..k+3 to the query broadcast in q0..q2
/// (axes beyond D unused).
template <int D>
__attribute__((target("avx2"))) inline __m256d squared_distance_lanes(
    const AxisPointers<D>& axes, std::size_t k, __m256d q0, __m256d q1, __m256d q2) noexcept {
  __m256d d = _mm256_sub_pd(_mm256_loadu_pd(axes[0] + k), q0);
  __m256d sum = _mm256_mul_pd(d, d);
  if constexpr (D >= 2) {
    d = _mm256_sub_pd(_mm256_loadu_pd(axes[1] + k), q1);
    sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
  }
  if constexpr (D >= 3) {
    d = _mm256_sub_pd(_mm256_loadu_pd(axes[2] + k), q2);
    sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
  }
  return sum;
}

/// Torus squared distances of elements k..k+3. |x| via clearing the sign
/// bit matches std::abs bit-for-bit on every non-NaN double; min_pd(side-d,
/// d) picks d on ties exactly like std::min(d, side-d), and d == side-d never
/// mixes +0/-0 here (d >= 0 and side > 0, so side-d == 0 only when
/// d == side > 0).
template <int D>
__attribute__((target("avx2"))) inline __m256d torus_squared_distance_lanes(
    const AxisPointers<D>& axes, std::size_t k, __m256d q0, __m256d q1, __m256d q2,
    __m256d side_v) noexcept {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d d = _mm256_andnot_pd(sign_mask, _mm256_sub_pd(_mm256_loadu_pd(axes[0] + k), q0));
  d = _mm256_min_pd(_mm256_sub_pd(side_v, d), d);
  __m256d sum = _mm256_mul_pd(d, d);
  if constexpr (D >= 2) {
    d = _mm256_andnot_pd(sign_mask, _mm256_sub_pd(_mm256_loadu_pd(axes[1] + k), q1));
    d = _mm256_min_pd(_mm256_sub_pd(side_v, d), d);
    sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
  }
  if constexpr (D >= 3) {
    d = _mm256_andnot_pd(sign_mask, _mm256_sub_pd(_mm256_loadu_pd(axes[2] + k), q2));
    d = _mm256_min_pd(_mm256_sub_pd(side_v, d), d);
    sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
  }
  return sum;
}

/// Left-packing tables for a 4-lane hit mask m: row m lists the set lanes of
/// m in ascending order (unused slots repeat lane 0). `lanes` drives the
/// 32-bit index compress; `float_pairs` is the same permutation in the
/// float-pair form _mm256_permutevar8x32_ps needs to move whole doubles.
struct PackTables {
  alignas(16) std::int32_t lanes[16][4];
  alignas(32) std::int32_t float_pairs[16][8];
};

constexpr PackTables make_pack_tables() noexcept {
  PackTables t{};
  for (int m = 0; m < 16; ++m) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((m >> lane) & 1) {
        t.lanes[m][out] = lane;
        t.float_pairs[m][2 * out] = 2 * lane;
        t.float_pairs[m][2 * out + 1] = 2 * lane + 1;
        ++out;
      }
    }
  }
  return t;
}

inline constexpr PackTables kPackTables = make_pack_tables();

/// Stores the hit lanes of `sum` (and their indices k..k+3) left-packed at
/// hit_d2/hit_index[hits]; returns the new hit count. Writes four entries
/// from `hits`, which is at most k, so a full group stays inside the run.
/// The permute moves whole 64-bit lanes, so every stored d2 keeps its bits.
__attribute__((target("avx2"))) inline std::size_t pack_hits(
    __m256d sum, __m256d r2v, std::size_t k, std::size_t hits, std::uint32_t* hit_index,
    double* hit_d2) noexcept {
  // _CMP_NGT_UQ is scalar !(sum > r2) (unordered => hit), the filter the
  // portable kernels apply.
  const int mask = _mm256_movemask_pd(_mm256_cmp_pd(sum, r2v, _CMP_NGT_UQ));
  const __m256i pairs = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kPackTables.float_pairs[mask]));
  const __m128i lanes =
      _mm_load_si128(reinterpret_cast<const __m128i*>(kPackTables.lanes[mask]));
  _mm256_storeu_pd(hit_d2 + hits,
                   _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(sum), pairs)));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(hit_index + hits),
                   _mm_add_epi32(_mm_set1_epi32(static_cast<int>(k)), lanes));
  return hits + static_cast<std::size_t>(std::popcount(static_cast<unsigned>(mask)));
}

}  // namespace detail

template <int D>
__attribute__((target("avx2"))) void batch_squared_distance_avx2(
    const AxisPointers<D>& axes, std::size_t count, const double* q, double* out) noexcept {
  const __m256d q0 = _mm256_set1_pd(q[0]);
  const __m256d q1 = _mm256_set1_pd(D >= 2 ? q[1] : 0.0);
  const __m256d q2 = _mm256_set1_pd(D >= 3 ? q[2] : 0.0);
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    _mm256_storeu_pd(out + k, detail::squared_distance_lanes<D>(axes, k, q0, q1, q2));
  }
  for (; k < count; ++k) out[k] = detail::squared_distance_at<D>(axes, k, q);
}

template <int D>
__attribute__((target("avx2"))) void batch_torus_squared_distance_avx2(
    const AxisPointers<D>& axes, std::size_t count, const double* q, double side,
    double* out) noexcept {
  const __m256d q0 = _mm256_set1_pd(q[0]);
  const __m256d q1 = _mm256_set1_pd(D >= 2 ? q[1] : 0.0);
  const __m256d q2 = _mm256_set1_pd(D >= 3 ? q[2] : 0.0);
  const __m256d side_v = _mm256_set1_pd(side);
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    _mm256_storeu_pd(out + k,
                     detail::torus_squared_distance_lanes<D>(axes, k, q0, q1, q2, side_v));
  }
  for (; k < count; ++k) out[k] = detail::torus_squared_distance_at<D>(axes, k, q, side);
}

template <int D>
__attribute__((target("avx2"))) std::size_t batch_squared_distance_within_avx2(
    const AxisPointers<D>& axes, std::size_t count, const double* q, double r2,
    std::uint32_t* hit_index, double* hit_d2) noexcept {
  const __m256d q0 = _mm256_set1_pd(q[0]);
  const __m256d q1 = _mm256_set1_pd(D >= 2 ? q[1] : 0.0);
  const __m256d q2 = _mm256_set1_pd(D >= 3 ? q[2] : 0.0);
  const __m256d r2v = _mm256_set1_pd(r2);
  std::size_t hits = 0;
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    hits = detail::pack_hits(detail::squared_distance_lanes<D>(axes, k, q0, q1, q2), r2v, k,
                             hits, hit_index, hit_d2);
  }
  for (; k < count; ++k) {
    const double d2 = detail::squared_distance_at<D>(axes, k, q);
    hit_index[hits] = static_cast<std::uint32_t>(k);
    hit_d2[hits] = d2;
    hits += static_cast<std::size_t>(!(d2 > r2));
  }
  return hits;
}

template <int D>
__attribute__((target("avx2"))) std::size_t batch_torus_squared_distance_within_avx2(
    const AxisPointers<D>& axes, std::size_t count, const double* q, double side, double r2,
    std::uint32_t* hit_index, double* hit_d2) noexcept {
  const __m256d q0 = _mm256_set1_pd(q[0]);
  const __m256d q1 = _mm256_set1_pd(D >= 2 ? q[1] : 0.0);
  const __m256d q2 = _mm256_set1_pd(D >= 3 ? q[2] : 0.0);
  const __m256d side_v = _mm256_set1_pd(side);
  const __m256d r2v = _mm256_set1_pd(r2);
  std::size_t hits = 0;
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    hits = detail::pack_hits(
        detail::torus_squared_distance_lanes<D>(axes, k, q0, q1, q2, side_v), r2v, k, hits,
        hit_index, hit_d2);
  }
  for (; k < count; ++k) {
    const double d2 = detail::torus_squared_distance_at<D>(axes, k, q, side);
    hit_index[hits] = static_cast<std::uint32_t>(k);
    hit_d2[hits] = d2;
    hits += static_cast<std::size_t>(!(d2 > r2));
  }
  return hits;
}

#endif  // MANET_KERNELS_X86

// ---------------------------------------------------------------------------
// Runtime dispatch. One cached CPUID probe; falls back to the portable path
// on non-x86 builds or pre-AVX2 hardware.
// ---------------------------------------------------------------------------

inline bool cpu_has_avx2() noexcept {
#if MANET_KERNELS_X86
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

/// out[k] = squared_distance(axes[.][k], q); bit-identical to the scalar core.
template <int D>
inline void batch_squared_distance(const AxisPointers<D>& axes, std::size_t count,
                                   const double* q, double* out) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) {
    batch_squared_distance_avx2<D>(axes, count, q, out);
    return;
  }
#endif
  batch_squared_distance_portable<D>(axes, count, q, out);
}

/// out[k] = torus_squared_distance(axes[.][k], q, side); bit-identical to the
/// scalar core.
template <int D>
inline void batch_torus_squared_distance(const AxisPointers<D>& axes, std::size_t count,
                                         const double* q, double side, double* out) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) {
    batch_torus_squared_distance_avx2<D>(axes, count, q, side, out);
    return;
  }
#endif
  batch_torus_squared_distance_portable<D>(axes, count, q, side, out);
}

/// Fused Euclidean in-radius kernel (see the portable variant's section for
/// the contract). Hits and their d2 bits are identical on every path.
template <int D>
inline std::size_t batch_squared_distance_within(const AxisPointers<D>& axes, std::size_t count,
                                                 const double* q, double r2,
                                                 std::uint32_t* hit_index,
                                                 double* hit_d2) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) {
    return batch_squared_distance_within_avx2<D>(axes, count, q, r2, hit_index, hit_d2);
  }
#endif
  return batch_squared_distance_within_portable<D>(axes, count, q, r2, hit_index, hit_d2);
}

/// Fused torus in-radius kernel; same contract.
template <int D>
inline std::size_t batch_torus_squared_distance_within(const AxisPointers<D>& axes,
                                                       std::size_t count, const double* q,
                                                       double side, double r2,
                                                       std::uint32_t* hit_index,
                                                       double* hit_d2) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) {
    return batch_torus_squared_distance_within_avx2<D>(axes, count, q, side, r2, hit_index,
                                                       hit_d2);
  }
#endif
  return batch_torus_squared_distance_within_portable<D>(axes, count, q, side, r2, hit_index,
                                                         hit_d2);
}

// ---------------------------------------------------------------------------
// Dense Prim pass: one relaxation of a fringe against the node that joined
// the tree last, fused with the search for the next node to join. The dense
// EMST solver (topology/emst_grid.hpp) runs one pass per tree edge over a
// compacted structure-of-arrays fringe, for k in [0, count):
//
//   d2 = metric(fringe_k, q)              (the scalar core's exact sequence)
//   if d2 < best[k]: best[k] = d2, from[k] = source
//
// and returns the lowest slot holding the smallest updated best[k]. The pass
// orders only by d2; the solver's strict (d2, u, v) order also needs the
// endpoint ids, so `tie` reports every place where d2 alone cannot decide:
// some d2 == best[k] before the update, or the smallest best[k] held by more
// than one slot. Without a tie the pass's decisions are exactly the strict
// order's; with one the solver redoes them in scalar code.
// ---------------------------------------------------------------------------

/// Outcome of one dense Prim pass.
struct PrimPass {
  std::size_t next = 0;  ///< lowest slot of the smallest best[k]
  bool tie = false;      ///< d2 alone did not decide the pass (see above)
};

namespace detail {

/// Running state of a pass over slots in ascending order.
struct PrimFold {
  double min;
  std::size_t next;
  bool relax_tie;
  bool min_tie;
};

/// One slot of a pass: relax against the source, then fold best[k] into the
/// running minimum. Later slots only replace the minimum when strictly
/// smaller, so the lowest slot of the minimum wins.
inline void prim_slot(double d2, std::size_t k, std::uint64_t source, double* best,
                      std::uint64_t* from, PrimFold& fold) noexcept {
  double b = best[k];
  fold.relax_tie = fold.relax_tie || d2 == b;
  if (d2 < b) {
    b = d2;
    best[k] = d2;
    from[k] = source;
  }
  if (b < fold.min) {
    fold.min = b;
    fold.next = k;
    fold.min_tie = false;
  } else if (b == fold.min) {
    fold.min_tie = true;
  }
}

template <int D, bool Torus>
inline double metric_at(const AxisPointers<D>& axes, std::size_t k, const double* q,
                        double side) noexcept {
  if constexpr (Torus) {
    return torus_squared_distance_at<D>(axes, k, q, side);
  } else {
    return squared_distance_at<D>(axes, k, q);
  }
}

}  // namespace detail

/// Portable dense Prim pass; `side` is read only under the torus metric.
template <int D, bool Torus>
PrimPass dense_prim_pass_portable(const AxisPointers<D>& axes, std::size_t count,
                                  const double* q, double side, std::uint64_t source,
                                  double* best, std::uint64_t* from) noexcept {
  detail::PrimFold fold{std::numeric_limits<double>::infinity(), 0, false, false};
  for (std::size_t k = 0; k < count; ++k) {
    detail::prim_slot(detail::metric_at<D, Torus>(axes, k, q, side), k, source, best, from,
                      fold);
  }
  return {fold.next, fold.relax_tie || fold.min_tie};
}

#if MANET_KERNELS_X86

/// AVX2 dense Prim pass. Each lane relaxes with the scalar comparisons
/// (_CMP_LT_OQ / _CMP_EQ_OQ are scalar < / ==), the 64-bit from[] entries
/// move by the same lane mask, and each lane keeps its own minimum, the
/// lowest slot holding it and whether it repeated. The lanes then fold in
/// slot order and the scalar tail continues the fold, so next and tie equal
/// the portable pass's.
template <int D, bool Torus>
__attribute__((target("avx2"))) PrimPass dense_prim_pass_avx2(
    const AxisPointers<D>& axes, std::size_t count, const double* q, double side,
    std::uint64_t source, double* best, std::uint64_t* from) noexcept {
  const __m256d q0 = _mm256_set1_pd(q[0]);
  const __m256d q1 = _mm256_set1_pd(D >= 2 ? q[1] : 0.0);
  const __m256d q2 = _mm256_set1_pd(D >= 3 ? q[2] : 0.0);
  const __m256d side_v = _mm256_set1_pd(side);
  const __m256d source_v = _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(source)));
  const __m256i step = _mm256_set1_epi64x(4);
  __m256i slot = _mm256_setr_epi64x(0, 1, 2, 3);
  __m256d lane_min = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  __m256d lane_next = _mm256_setzero_pd();  // slot bits, moved as doubles
  __m256d lane_repeat = _mm256_setzero_pd();
  __m256d relax_tie = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    __m256d d2;
    if constexpr (Torus) {
      d2 = detail::torus_squared_distance_lanes<D>(axes, k, q0, q1, q2, side_v);
    } else {
      d2 = detail::squared_distance_lanes<D>(axes, k, q0, q1, q2);
    }
    __m256d b = _mm256_loadu_pd(best + k);
    relax_tie = _mm256_or_pd(relax_tie, _mm256_cmp_pd(d2, b, _CMP_EQ_OQ));
    const __m256d closer = _mm256_cmp_pd(d2, b, _CMP_LT_OQ);
    b = _mm256_blendv_pd(b, d2, closer);
    _mm256_storeu_pd(best + k, b);
    __m256i* from_k = reinterpret_cast<__m256i*>(from + k);
    const __m256d from_v = _mm256_castsi256_pd(_mm256_loadu_si256(from_k));
    _mm256_storeu_si256(from_k, _mm256_castpd_si256(_mm256_blendv_pd(from_v, source_v, closer)));
    const __m256d lower = _mm256_cmp_pd(b, lane_min, _CMP_LT_OQ);
    const __m256d same = _mm256_cmp_pd(b, lane_min, _CMP_EQ_OQ);
    lane_min = _mm256_blendv_pd(lane_min, b, lower);
    lane_next = _mm256_blendv_pd(lane_next, _mm256_castsi256_pd(slot), lower);
    lane_repeat = _mm256_or_pd(_mm256_andnot_pd(lower, lane_repeat), same);
    slot = _mm256_add_epi64(slot, step);
  }

  detail::PrimFold fold{std::numeric_limits<double>::infinity(), 0, false, false};
  if (k > 0) {
    alignas(32) double mins[4];
    alignas(32) std::uint64_t nexts[4];
    _mm256_store_pd(mins, lane_min);
    _mm256_store_si256(reinterpret_cast<__m256i*>(nexts), _mm256_castpd_si256(lane_next));
    const int repeats = _mm256_movemask_pd(lane_repeat);
    fold.relax_tie = _mm256_movemask_pd(relax_tie) != 0;
    fold.min = std::min(std::min(mins[0], mins[1]), std::min(mins[2], mins[3]));
    int holders = 0;
    fold.next = k;
    for (int lane = 0; lane < 4; ++lane) {
      if (!(mins[lane] == fold.min)) continue;
      ++holders;
      fold.min_tie = fold.min_tie || ((repeats >> lane) & 1) != 0;
      fold.next = std::min(fold.next, static_cast<std::size_t>(nexts[lane]));
    }
    fold.min_tie = fold.min_tie || holders > 1;
  }
  for (; k < count; ++k) {
    detail::prim_slot(detail::metric_at<D, Torus>(axes, k, q, side), k, source, best, from,
                      fold);
  }
  return {fold.next, fold.relax_tie || fold.min_tie};
}

#endif  // MANET_KERNELS_X86

/// One dense Prim pass (see the section comment); best[], from[] and the
/// result are identical on every path.
template <int D, bool Torus>
inline PrimPass dense_prim_pass(const AxisPointers<D>& axes, std::size_t count, const double* q,
                                double side, std::uint64_t source, double* best,
                                std::uint64_t* from) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) {
    return dense_prim_pass_avx2<D, Torus>(axes, count, q, side, source, best, from);
  }
#endif
  return dense_prim_pass_portable<D, Torus>(axes, count, q, side, source, best, from);
}

// ---------------------------------------------------------------------------
// Elementwise trace kernels for the mobility / kinetic layers.
// ---------------------------------------------------------------------------

/// out[k] = 1 when the k-th tuples of `a` and `b` differ in any axis
/// (IEEE `!=` per coordinate, exactly `!(Point == Point)`), else 0. Used by
/// the kinetic engine's moved-node detection.
template <int D>
void batch_tuple_not_equal_portable(const AxisPointers<D>& a, const AxisPointers<D>& b,
                                    std::size_t count, std::uint8_t* out) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    bool neq = false;
    for (int i = 0; i < D; ++i) {
      neq = neq || (a[static_cast<std::size_t>(i)][k] != b[static_cast<std::size_t>(i)][k]);
    }
    out[k] = neq ? std::uint8_t{1} : std::uint8_t{0};
  }
}

#if MANET_KERNELS_X86

template <int D>
__attribute__((target("avx2"))) void batch_tuple_not_equal_avx2(const AxisPointers<D>& a,
                                                                const AxisPointers<D>& b,
                                                                std::size_t count,
                                                                std::uint8_t* out) noexcept {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    // _CMP_NEQ_UQ matches the semantics of scalar `!=` (unordered => true).
    __m256d neq = _mm256_cmp_pd(_mm256_loadu_pd(a[0] + k), _mm256_loadu_pd(b[0] + k),
                                _CMP_NEQ_UQ);
    if constexpr (D >= 2) {
      neq = _mm256_or_pd(neq, _mm256_cmp_pd(_mm256_loadu_pd(a[1] + k),
                                            _mm256_loadu_pd(b[1] + k), _CMP_NEQ_UQ));
    }
    if constexpr (D >= 3) {
      neq = _mm256_or_pd(neq, _mm256_cmp_pd(_mm256_loadu_pd(a[2] + k),
                                            _mm256_loadu_pd(b[2] + k), _CMP_NEQ_UQ));
    }
    const int mask = _mm256_movemask_pd(neq);
    out[k + 0] = static_cast<std::uint8_t>(mask & 1);
    out[k + 1] = static_cast<std::uint8_t>((mask >> 1) & 1);
    out[k + 2] = static_cast<std::uint8_t>((mask >> 2) & 1);
    out[k + 3] = static_cast<std::uint8_t>((mask >> 3) & 1);
  }
  for (; k < count; ++k) {
    bool neq = false;
    for (int i = 0; i < D; ++i) {
      neq = neq || (a[static_cast<std::size_t>(i)][k] != b[static_cast<std::size_t>(i)][k]);
    }
    out[k] = neq ? std::uint8_t{1} : std::uint8_t{0};
  }
}

#endif  // MANET_KERNELS_X86

/// Moved-node detection over two SoA snapshots; see the portable variant for
/// the exact semantics.
template <int D>
inline void batch_tuple_not_equal(const AxisPointers<D>& a, const AxisPointers<D>& b,
                                  std::size_t count, std::uint8_t* out) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) {
    batch_tuple_not_equal_avx2<D>(a, b, count, out);
    return;
  }
#endif
  batch_tuple_not_equal_portable<D>(a, b, count, out);
}

/// out[k] = distance between the k-th tuples of `a` and `b`:
/// sqrt(sum_i (a_i - b_i)^2) in the fixed per-axis order. sqrt is an IEEE
/// correctly-rounded operation, so the vectorized form (vsqrtpd) is
/// bit-identical to std::sqrt lane by lane. Used by the waypoint model's
/// leg-progress pass.
template <int D>
void batch_pair_distance_portable(const AxisPointers<D>& a, const AxisPointers<D>& b,
                                  std::size_t count, double* out) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    double sum = 0.0;
    for (int i = 0; i < D; ++i) {
      const double d = a[static_cast<std::size_t>(i)][k] - b[static_cast<std::size_t>(i)][k];
      sum += d * d;
    }
    out[k] = std::sqrt(sum);
  }
}

#if MANET_KERNELS_X86

template <int D>
__attribute__((target("avx2"))) void batch_pair_distance_avx2(const AxisPointers<D>& a,
                                                              const AxisPointers<D>& b,
                                                              std::size_t count,
                                                              double* out) noexcept {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a[0] + k), _mm256_loadu_pd(b[0] + k));
    __m256d sum = _mm256_mul_pd(d, d);
    if constexpr (D >= 2) {
      d = _mm256_sub_pd(_mm256_loadu_pd(a[1] + k), _mm256_loadu_pd(b[1] + k));
      sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
    }
    if constexpr (D >= 3) {
      d = _mm256_sub_pd(_mm256_loadu_pd(a[2] + k), _mm256_loadu_pd(b[2] + k));
      sum = _mm256_add_pd(sum, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(out + k, _mm256_sqrt_pd(sum));
  }
  for (; k < count; ++k) {
    double sum = 0.0;
    for (int i = 0; i < D; ++i) {
      const double d = a[static_cast<std::size_t>(i)][k] - b[static_cast<std::size_t>(i)][k];
      sum += d * d;
    }
    out[k] = std::sqrt(sum);
  }
}

#endif  // MANET_KERNELS_X86

/// Pairwise Euclidean distance over two SoA blocks; bit-identical to
/// `distance(a_k, b_k)` per element.
template <int D>
inline void batch_pair_distance(const AxisPointers<D>& a, const AxisPointers<D>& b,
                                std::size_t count, double* out) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) {
    batch_pair_distance_avx2<D>(a, b, count, out);
    return;
  }
#endif
  batch_pair_distance_portable<D>(a, b, count, out);
}

/// Masked leg advance for the waypoint model: where mask[k] != 0,
///   pos_i[k] += (dest_i[k] - pos_i[k]) * scale[k]   for each axis i,
/// exactly the scalar `pos += (dest - pos) * scale`; other lanes are left
/// untouched (a select, not a multiply-by-zero, so masked lanes cannot pick
/// up -0.0 or NaN from a garbage scale).
template <int D>
void batch_masked_advance_portable(const MutableAxisPointers<D>& pos, const AxisPointers<D>& dest,
                                   const double* scale, const std::uint8_t* mask,
                                   std::size_t count) noexcept {
  for (int i = 0; i < D; ++i) {
    double* p = pos[static_cast<std::size_t>(i)];
    const double* t = dest[static_cast<std::size_t>(i)];
    for (std::size_t k = 0; k < count; ++k) {
      const double advanced = p[k] + (t[k] - p[k]) * scale[k];
      p[k] = mask[k] != 0 ? advanced : p[k];
    }
  }
}

#if MANET_KERNELS_X86

template <int D>
__attribute__((target("avx2"))) void batch_masked_advance_avx2(
    const MutableAxisPointers<D>& pos, const AxisPointers<D>& dest, const double* scale,
    const std::uint8_t* mask, std::size_t count) noexcept {
  for (int i = 0; i < D; ++i) {
    double* p = pos[static_cast<std::size_t>(i)];
    const double* t = dest[static_cast<std::size_t>(i)];
    std::size_t k = 0;
    for (; k + 4 <= count; k += 4) {
      // Widen the 4 mask bytes to qword lanes; is_zero lanes keep the old pos.
      const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(
          static_cast<unsigned>(mask[k]) | (static_cast<unsigned>(mask[k + 1]) << 8) |
          (static_cast<unsigned>(mask[k + 2]) << 16) |
          (static_cast<unsigned>(mask[k + 3]) << 24)));
      const __m256i wide = _mm256_cvtepu8_epi64(bytes);
      const __m256i is_zero = _mm256_cmpeq_epi64(wide, _mm256_setzero_si256());
      const __m256d pv = _mm256_loadu_pd(p + k);
      const __m256d delta = _mm256_sub_pd(_mm256_loadu_pd(t + k), pv);
      const __m256d advanced =
          _mm256_add_pd(pv, _mm256_mul_pd(delta, _mm256_loadu_pd(scale + k)));
      _mm256_storeu_pd(p + k, _mm256_blendv_pd(advanced, pv, _mm256_castsi256_pd(is_zero)));
    }
    for (; k < count; ++k) {
      const double advanced = p[k] + (t[k] - p[k]) * scale[k];
      p[k] = mask[k] != 0 ? advanced : p[k];
    }
  }
}

#endif  // MANET_KERNELS_X86

/// Masked waypoint advance; see the portable variant for exact semantics.
template <int D>
inline void batch_masked_advance(const MutableAxisPointers<D>& pos, const AxisPointers<D>& dest,
                                 const double* scale, const std::uint8_t* mask,
                                 std::size_t count) noexcept {
#if MANET_KERNELS_X86
  if (cpu_has_avx2()) {
    batch_masked_advance_avx2<D>(pos, dest, scale, mask, count);
    return;
  }
#endif
  batch_masked_advance_portable<D>(pos, dest, scale, mask, count);
}

}  // namespace manet::kernels
