// Differential suite for the batched SoA kernels (geometry/
// distance_kernels.hpp). The library's bit-identity story rests on one
// claim: every batched kernel reproduces the scalar core's exact per-element
// floating-point operation sequence, on whichever path (portable loop or
// AVX2) the dispatcher picks at runtime. These tests pin that claim
// bitwise — EXPECT_EQ on doubles here means "same 64 bits", not "close" —
// across D in {1, 2, 3}, randomized coordinates, torus seam cases, exact
// duplicates, and odd batch lengths that exercise the vector tails.

#include "geometry/distance_kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/point_store.hpp"
#include "geometry/torus.hpp"
#include "support/rng.hpp"

namespace manet {
namespace {

/// Bitwise double equality (distinguishes +0/-0, compares NaNs by pattern).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// Batch lengths covering empty, sub-vector, exact-vector and tail cases.
const std::vector<std::size_t> kCounts = {0, 1, 2, 3, 4, 5, 7, 8, 64, 67, 251};

template <int D>
PointStore<D> random_store(std::size_t n, double lo, double hi, Rng& rng) {
  PointStore<D> store;
  store.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    Point<D> p;
    for (int i = 0; i < D; ++i) p.coords[static_cast<std::size_t>(i)] = rng.uniform(lo, hi);
    store.set(k, p);
  }
  return store;
}

// ----- batch_squared_distance ---------------------------------------------

template <int D>
void check_squared_distance() {
  Rng rng(20260807u + static_cast<std::uint64_t>(D));
  for (const std::size_t n : kCounts) {
    PointStore<D> store = random_store<D>(n, -3.0, 7.0, rng);
    Point<D> q;
    for (int i = 0; i < D; ++i) q.coords[static_cast<std::size_t>(i)] = rng.uniform(-3.0, 7.0);
    if (n >= 2) store.set(1, q);  // an exact duplicate lane must give exactly 0

    std::vector<double> dispatched(n), portable(n);
    kernels::batch_squared_distance<D>(store.axes(), n, q.coords.data(), dispatched.data());
    kernels::batch_squared_distance_portable<D>(store.axes(), n, q.coords.data(),
                                                portable.data());
    for (std::size_t k = 0; k < n; ++k) {
      const double scalar = squared_distance(store.get(k), q);
      EXPECT_TRUE(bits_equal(dispatched[k], scalar)) << "D=" << D << " n=" << n << " k=" << k;
      EXPECT_TRUE(bits_equal(dispatched[k], portable[k]))
          << "dispatch vs portable, D=" << D << " n=" << n << " k=" << k;
    }
  }
}

TEST(BatchSquaredDistance, BitIdenticalToScalar1D) { check_squared_distance<1>(); }
TEST(BatchSquaredDistance, BitIdenticalToScalar2D) { check_squared_distance<2>(); }
TEST(BatchSquaredDistance, BitIdenticalToScalar3D) { check_squared_distance<3>(); }

// ----- batch_torus_squared_distance ---------------------------------------

template <int D>
void check_torus_squared_distance() {
  Rng rng(777u + static_cast<std::uint64_t>(D));
  const double side = 10.0;
  for (const std::size_t n : kCounts) {
    PointStore<D> store = random_store<D>(n, 0.0, side, rng);
    Point<D> q;
    for (int i = 0; i < D; ++i) q.coords[static_cast<std::size_t>(i)] = rng.uniform(0.0, side);
    // Seam cases: a duplicate of q, a point hugging the far edge (wraps), and
    // the antipode (|d| == side - |d| tie, where min must pick the second
    // operand exactly like std::min).
    if (n >= 1) store.set(0, q);
    if (n >= 3) {
      Point<D> far = q;
      far.coords[0] = side - 1e-9;
      store.set(2, far);
      Point<D> antipode = q;
      antipode.coords[0] = q.coords[0] < side / 2 ? q.coords[0] + side / 2
                                                  : q.coords[0] - side / 2;
      store.set(3 % n, antipode);
    }

    std::vector<double> dispatched(n), portable(n);
    kernels::batch_torus_squared_distance<D>(store.axes(), n, q.coords.data(), side,
                                             dispatched.data());
    kernels::batch_torus_squared_distance_portable<D>(store.axes(), n, q.coords.data(), side,
                                                      portable.data());
    for (std::size_t k = 0; k < n; ++k) {
      const double scalar = torus_squared_distance(store.get(k), q, side);
      EXPECT_TRUE(bits_equal(dispatched[k], scalar)) << "D=" << D << " n=" << n << " k=" << k;
      EXPECT_TRUE(bits_equal(dispatched[k], portable[k]))
          << "dispatch vs portable, D=" << D << " n=" << n << " k=" << k;
    }
  }
}

TEST(BatchTorusSquaredDistance, BitIdenticalToScalar1D) { check_torus_squared_distance<1>(); }
TEST(BatchTorusSquaredDistance, BitIdenticalToScalar2D) { check_torus_squared_distance<2>(); }
TEST(BatchTorusSquaredDistance, BitIdenticalToScalar3D) { check_torus_squared_distance<3>(); }

// ----- fused in-radius kernels --------------------------------------------

/// The hits of one fused kernel call: slot indices and their d2 values.
struct Hits {
  std::vector<std::uint32_t> index;
  std::vector<double> d2;
};

/// Runs a fused kernel variant `fused(index_out, d2_out) -> hit count` over
/// buffers of `count` entries and returns the hits it reported.
template <typename Fused>
Hits collect_hits(std::size_t count, Fused&& fused) {
  Hits hits;
  hits.index.assign(count, 0xFFFFFFFFu);
  hits.d2.assign(count, -1.0);
  const std::size_t found = fused(hits.index.data(), hits.d2.data());
  EXPECT_LE(found, count);
  hits.index.resize(found);
  hits.d2.resize(found);
  return hits;
}

void expect_same_hits(const Hits& a, const Hits& b, const std::string& label) {
  ASSERT_EQ(a.index.size(), b.index.size()) << label;
  for (std::size_t h = 0; h < a.index.size(); ++h) {
    EXPECT_EQ(a.index[h], b.index[h]) << label << " hit " << h;
    EXPECT_TRUE(bits_equal(a.d2[h], b.d2[h])) << label << " hit " << h;
  }
}

/// Fused kernel vs the scalar metric plus the scalar `!(d2 > r2)` filter,
/// and — when the CPU has AVX2 — the AVX2 variant against the portable one,
/// hit for hit. The radius is set to one lane's exact d2 so the d2 == r2
/// boundary is always exercised, and the store includes an exact duplicate
/// of the query (d2 == 0).
template <int D, bool Torus>
void check_fused_within() {
  Rng rng(4242u + static_cast<std::uint64_t>(D) + (Torus ? 100u : 0u));
  const double side = 10.0;
  for (const std::size_t n : kCounts) {
    PointStore<D> store = random_store<D>(n, 0.0, side, rng);
    Point<D> q;
    for (int i = 0; i < D; ++i) q.coords[static_cast<std::size_t>(i)] = rng.uniform(0.0, side);
    if (n >= 2) store.set(1, q);
    const auto metric = [&](std::size_t k) {
      return Torus ? torus_squared_distance(store.get(k), q, side)
                   : squared_distance(store.get(k), q);
    };
    const double r2 = n >= 1 ? metric(n / 2) : 4.0;

    Hits expected;
    for (std::size_t k = 0; k < n; ++k) {
      const double d2 = metric(k);
      if (d2 > r2) continue;
      expected.index.push_back(static_cast<std::uint32_t>(k));
      expected.d2.push_back(d2);
    }
    const std::string label = "D=" + std::to_string(D) + " torus=" + std::to_string(Torus) +
                              " n=" + std::to_string(n);
    const auto portable = collect_hits(n, [&](std::uint32_t* index, double* d2) {
      if constexpr (Torus) {
        return kernels::batch_torus_squared_distance_within_portable<D>(
            store.axes(), n, q.coords.data(), side, r2, index, d2);
      } else {
        return kernels::batch_squared_distance_within_portable<D>(store.axes(), n,
                                                                  q.coords.data(), r2, index, d2);
      }
    });
    const auto dispatched = collect_hits(n, [&](std::uint32_t* index, double* d2) {
      if constexpr (Torus) {
        return kernels::batch_torus_squared_distance_within<D>(store.axes(), n, q.coords.data(),
                                                               side, r2, index, d2);
      } else {
        return kernels::batch_squared_distance_within<D>(store.axes(), n, q.coords.data(), r2,
                                                         index, d2);
      }
    });
    expect_same_hits(portable, expected, label + " portable vs scalar");
    expect_same_hits(dispatched, portable, label + " dispatch vs portable");
#if MANET_KERNELS_X86
    if (kernels::cpu_has_avx2()) {
      const auto avx2 = collect_hits(n, [&](std::uint32_t* index, double* d2) {
        if constexpr (Torus) {
          return kernels::batch_torus_squared_distance_within_avx2<D>(
              store.axes(), n, q.coords.data(), side, r2, index, d2);
        } else {
          return kernels::batch_squared_distance_within_avx2<D>(store.axes(), n,
                                                                q.coords.data(), r2, index, d2);
        }
      });
      expect_same_hits(avx2, portable, label + " avx2 vs portable");
    }
#endif
  }
}

TEST(BatchWithinRadius, FusedKernelHitsMatchScalarFilter1D) { check_fused_within<1, false>(); }
TEST(BatchWithinRadius, FusedKernelHitsMatchScalarFilter2D) { check_fused_within<2, false>(); }
TEST(BatchWithinRadius, FusedKernelHitsMatchScalarFilter3D) { check_fused_within<3, false>(); }
TEST(BatchWithinRadius, FusedTorusKernelHitsMatchScalarFilter1D) { check_fused_within<1, true>(); }
TEST(BatchWithinRadius, FusedTorusKernelHitsMatchScalarFilter2D) { check_fused_within<2, true>(); }
TEST(BatchWithinRadius, FusedTorusKernelHitsMatchScalarFilter3D) { check_fused_within<3, true>(); }

TEST(BatchWithinRadius, AllAndNoLanesHit) {
  // A 1-D run of 64 points at 0..63 against q = 0: r2 = -1, 0, 15.5^2 and
  // 64^2 hit the first 0, 1, 16 and 64 points — no lane, a group boundary
  // inside the first group, an exact group edge and every lane.
  PointStore<1> store;
  store.resize(64);
  for (std::size_t k = 0; k < 64; ++k) store.set(k, Point<1>{{static_cast<double>(k)}});
  const double q = 0.0;
  const std::pair<double, std::size_t> cases[] = {
      {-1.0, 0}, {0.0, 1}, {15.5 * 15.5, 16}, {64.0 * 64.0, 64}};
  for (const auto& [r2, want] : cases) {
    const auto hits = collect_hits(64, [&](std::uint32_t* index, double* d2) {
      return kernels::batch_squared_distance_within<1>(store.axes(), 64, &q, r2, index, d2);
    });
    ASSERT_EQ(hits.index.size(), want) << "r2=" << r2;
    for (std::size_t h = 0; h < want; ++h) EXPECT_EQ(hits.index[h], h);
  }
}

// ----- dense Prim pass ----------------------------------------------------

/// Inputs and outputs of one dense_prim_pass call.
struct PrimPassState {
  std::vector<double> best;
  std::vector<std::uint64_t> from;
  kernels::PrimPass pass;
};

void expect_same_pass(const PrimPassState& a, const PrimPassState& b, const std::string& label) {
  EXPECT_EQ(a.pass.next, b.pass.next) << label;
  EXPECT_EQ(a.pass.tie, b.pass.tie) << label;
  ASSERT_EQ(a.best.size(), b.best.size()) << label;
  for (std::size_t k = 0; k < a.best.size(); ++k) {
    EXPECT_TRUE(bits_equal(a.best[k], b.best[k])) << label << " slot " << k;
    EXPECT_EQ(a.from[k], b.from[k]) << label << " slot " << k;
  }
}

/// The dense Prim pass against a scalar statement of its contract and, when
/// the CPU has AVX2, the AVX2 variant against the portable one — best[],
/// from[], next and tie alike. Four fringe states per length: a first pass
/// (best all +inf), random earlier bests, earlier bests equal to this pass's
/// exact d2 on every third slot (relaxation ties), and integer lattice
/// coordinates with small integer bests (ties for the minimum, and d2 == 0
/// at the query's own lattice point).
template <int D, bool Torus>
void check_dense_prim_pass() {
  Rng rng(7117u + static_cast<std::uint64_t>(D) + (Torus ? 100u : 0u));
  const double side = 10.0;
  const std::uint64_t source = 977;
  for (const std::size_t n : kCounts) {
    for (int state = 0; state < 4; ++state) {
      const bool lattice = state == 3;
      PointStore<D> store = random_store<D>(n, 0.0, side, rng);
      Point<D> q;
      for (int i = 0; i < D; ++i) q.coords[static_cast<std::size_t>(i)] = rng.uniform(0.0, side);
      if (lattice) {
        for (std::size_t k = 0; k < n; ++k) {
          Point<D> p = store.get(k);
          for (double& c : p.coords) c = std::floor(c);
          store.set(k, p);
        }
        for (double& c : q.coords) c = std::floor(c);
      }
      const auto metric = [&](std::size_t k) {
        return Torus ? torus_squared_distance(store.get(k), q, side)
                     : squared_distance(store.get(k), q);
      };

      PrimPassState input;
      input.best.assign(n, std::numeric_limits<double>::infinity());
      input.from.assign(n, 0);
      for (std::size_t k = 0; k < n; ++k) {
        input.from[k] = rng.next_u64() % 1000;
        if (state == 1) input.best[k] = rng.uniform(0.0, 2.0 * side * side);
        if (state == 2) input.best[k] = k % 3 == 0 ? metric(k) : rng.uniform(0.0, side * side);
        if (lattice) input.best[k] = std::floor(rng.uniform(0.0, 8.0));
      }

      // The contract, slot by slot.
      PrimPassState expected = input;
      bool relax_tie = false;
      for (std::size_t k = 0; k < n; ++k) {
        const double d2 = metric(k);
        relax_tie = relax_tie || d2 == expected.best[k];
        if (d2 < expected.best[k]) {
          expected.best[k] = d2;
          expected.from[k] = source;
        }
      }
      std::size_t holders = 0;
      for (std::size_t k = 0; k < n; ++k) {
        if (expected.best[k] < expected.best[expected.pass.next]) expected.pass.next = k;
      }
      for (std::size_t k = 0; k < n; ++k) {
        holders += expected.best[k] == expected.best[expected.pass.next] ? 1 : 0;
      }
      expected.pass.tie = relax_tie || holders > 1;

      const auto run = [&](auto&& kernel) {
        PrimPassState out = input;
        out.pass = kernel(store.axes(), n, q.coords.data(), side, source, out.best.data(),
                          out.from.data());
        return out;
      };
      const std::string label = "D=" + std::to_string(D) + " torus=" + std::to_string(Torus) +
                                " n=" + std::to_string(n) + " state=" + std::to_string(state);
      const PrimPassState portable = run(kernels::dense_prim_pass_portable<D, Torus>);
      expect_same_pass(portable, expected, label + " portable vs contract");
      expect_same_pass(run(kernels::dense_prim_pass<D, Torus>), portable,
                       label + " dispatch vs portable");
      if (state == 2 && n > 0) EXPECT_TRUE(portable.pass.tie) << label;
#if MANET_KERNELS_X86
      if (kernels::cpu_has_avx2()) {
        expect_same_pass(run(kernels::dense_prim_pass_avx2<D, Torus>), portable,
                         label + " avx2 vs portable");
      }
#endif
    }
  }
}

TEST(DensePrimPass, KernelMatchesContractAndPathsAgree1D) { check_dense_prim_pass<1, false>(); }
TEST(DensePrimPass, KernelMatchesContractAndPathsAgree2D) { check_dense_prim_pass<2, false>(); }
TEST(DensePrimPass, KernelMatchesContractAndPathsAgree3D) { check_dense_prim_pass<3, false>(); }
TEST(DensePrimPass, TorusKernelMatchesContractAndPathsAgree1D) {
  check_dense_prim_pass<1, true>();
}
TEST(DensePrimPass, TorusKernelMatchesContractAndPathsAgree2D) {
  check_dense_prim_pass<2, true>();
}
TEST(DensePrimPass, TorusKernelMatchesContractAndPathsAgree3D) {
  check_dense_prim_pass<3, true>();
}

// ----- batch_tuple_not_equal ----------------------------------------------

template <int D>
void check_tuple_not_equal() {
  Rng rng(99u + static_cast<std::uint64_t>(D));
  for (const std::size_t n : kCounts) {
    PointStore<D> a = random_store<D>(n, 0.0, 1.0, rng);
    PointStore<D> b = a;  // start equal everywhere
    // Perturb a random subset, sometimes only in the last axis.
    for (std::size_t k = 0; k < n; ++k) {
      if (rng.bernoulli(0.4)) {
        Point<D> p = b.get(k);
        p.coords[static_cast<std::size_t>(D - 1)] += 1e-12;
        b.set(k, p);
      }
    }
    std::vector<std::uint8_t> dispatched(n, 2), portable(n, 2);
    kernels::batch_tuple_not_equal<D>(a.axes(), b.axes(), n, dispatched.data());
    kernels::batch_tuple_not_equal_portable<D>(a.axes(), b.axes(), n, portable.data());
    for (std::size_t k = 0; k < n; ++k) {
      const bool neq = !(a.get(k) == b.get(k));
      EXPECT_EQ(dispatched[k], neq ? 1 : 0) << "D=" << D << " n=" << n << " k=" << k;
      EXPECT_EQ(dispatched[k], portable[k]) << "D=" << D << " n=" << n << " k=" << k;
    }
  }
}

TEST(BatchTupleNotEqual, MatchesPointInequality1D) { check_tuple_not_equal<1>(); }
TEST(BatchTupleNotEqual, MatchesPointInequality2D) { check_tuple_not_equal<2>(); }
TEST(BatchTupleNotEqual, MatchesPointInequality3D) { check_tuple_not_equal<3>(); }

TEST(BatchTupleNotEqual, SignedZeroLanesCompareEqual) {
  // IEEE `!=` says -0.0 == +0.0; the kernel must agree (vcmppd does).
  PointStore<2> a, b;
  a.resize(5);
  b.resize(5);
  for (std::size_t k = 0; k < 5; ++k) {
    a.set(k, Point<2>{{+0.0, 1.0}});
    b.set(k, Point<2>{{-0.0, 1.0}});
  }
  std::vector<std::uint8_t> out(5, 2);
  kernels::batch_tuple_not_equal<2>(a.axes(), b.axes(), 5, out.data());
  for (std::size_t k = 0; k < 5; ++k) EXPECT_EQ(out[k], 0u) << k;
}

// ----- batch_pair_distance ------------------------------------------------

template <int D>
void check_pair_distance() {
  Rng rng(4242u + static_cast<std::uint64_t>(D));
  for (const std::size_t n : kCounts) {
    PointStore<D> a = random_store<D>(n, -5.0, 5.0, rng);
    PointStore<D> b = random_store<D>(n, -5.0, 5.0, rng);
    if (n >= 2) b.set(1, a.get(1));  // a zero-distance lane
    std::vector<double> dispatched(n), portable(n);
    kernels::batch_pair_distance<D>(a.axes(), b.axes(), n, dispatched.data());
    kernels::batch_pair_distance_portable<D>(a.axes(), b.axes(), n, portable.data());
    for (std::size_t k = 0; k < n; ++k) {
      const double scalar = distance(a.get(k), b.get(k));
      EXPECT_TRUE(bits_equal(dispatched[k], scalar)) << "D=" << D << " n=" << n << " k=" << k;
      EXPECT_TRUE(bits_equal(dispatched[k], portable[k]))
          << "dispatch vs portable, D=" << D << " n=" << n << " k=" << k;
    }
  }
}

TEST(BatchPairDistance, BitIdenticalToScalar1D) { check_pair_distance<1>(); }
TEST(BatchPairDistance, BitIdenticalToScalar2D) { check_pair_distance<2>(); }
TEST(BatchPairDistance, BitIdenticalToScalar3D) { check_pair_distance<3>(); }

// ----- batch_masked_advance -----------------------------------------------

template <int D>
void check_masked_advance() {
  Rng rng(1717u + static_cast<std::uint64_t>(D));
  for (const std::size_t n : kCounts) {
    PointStore<D> pos = random_store<D>(n, 0.0, 10.0, rng);
    PointStore<D> dest = random_store<D>(n, 0.0, 10.0, rng);
    std::vector<double> scale(n);
    std::vector<std::uint8_t> mask(n);
    for (std::size_t k = 0; k < n; ++k) {
      mask[k] = rng.bernoulli(0.5) ? 1 : 0;
      // Masked-off lanes get a poisonous scale on purpose: a select-based
      // kernel never reads it, a multiply-by-zero one would produce NaN.
      scale[k] = mask[k] != 0 ? rng.uniform(0.0, 1.0)
                              : std::numeric_limits<double>::quiet_NaN();
    }

    // Scalar reference on a copy.
    PointStore<D> expected = pos;
    for (std::size_t k = 0; k < n; ++k) {
      if (mask[k] == 0) continue;
      Point<D> p = expected.get(k);
      const Point<D> t = dest.get(k);
      for (int i = 0; i < D; ++i) {
        const std::size_t a = static_cast<std::size_t>(i);
        p.coords[a] = p.coords[a] + (t.coords[a] - p.coords[a]) * scale[k];
      }
      expected.set(k, p);
    }

    PointStore<D> portable = pos;
    kernels::batch_masked_advance<D>(pos.mutable_axes(), dest.axes(), scale.data(), mask.data(),
                                     n);
    kernels::batch_masked_advance_portable<D>(portable.mutable_axes(), dest.axes(), scale.data(),
                                              mask.data(), n);
    for (std::size_t k = 0; k < n; ++k) {
      for (int i = 0; i < D; ++i) {
        const std::size_t a = static_cast<std::size_t>(i);
        EXPECT_TRUE(bits_equal(pos.get(k).coords[a], expected.get(k).coords[a]))
            << "D=" << D << " n=" << n << " k=" << k << " axis=" << i;
        EXPECT_TRUE(bits_equal(pos.get(k).coords[a], portable.get(k).coords[a]))
            << "dispatch vs portable, D=" << D << " n=" << n << " k=" << k << " axis=" << i;
      }
    }
  }
}

TEST(BatchMaskedAdvance, BitIdenticalToScalarAndLeavesMaskedLanesUntouched1D) {
  check_masked_advance<1>();
}
TEST(BatchMaskedAdvance, BitIdenticalToScalarAndLeavesMaskedLanesUntouched2D) {
  check_masked_advance<2>();
}
TEST(BatchMaskedAdvance, BitIdenticalToScalarAndLeavesMaskedLanesUntouched3D) {
  check_masked_advance<3>();
}

// ----- scalar cores are the public metrics --------------------------------

TEST(ScalarCores, PointAndTorusMetricsDelegateToTheKernelHeader) {
  const Point<3> a{{1.0, 2.0, 3.0}};
  const Point<3> b{{4.0, 6.0, 3.0}};
  EXPECT_TRUE(bits_equal(squared_distance(a, b),
                         kernels::squared_distance_scalar<3>(a.coords.data(), b.coords.data())));
  EXPECT_TRUE(bits_equal(
      torus_squared_distance(a, b, 10.0),
      kernels::torus_squared_distance_scalar<3>(a.coords.data(), b.coords.data(), 10.0)));
}

}  // namespace
}  // namespace manet
