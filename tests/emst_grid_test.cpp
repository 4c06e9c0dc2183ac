#include "topology/emst_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "geometry/torus.hpp"
#include "graph/union_find.hpp"
#include "sim/deployment.hpp"
#include "sim/trace_workspace.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

std::vector<double> sorted_weights(std::span<const WeightedEdge> edges) {
  std::vector<double> weights;
  weights.reserve(edges.size());
  for (const auto& edge : edges) weights.push_back(edge.weight);
  std::sort(weights.begin(), weights.end());
  return weights;
}

// The grid engine may pick a different (equally minimal) tree than dense
// Prim when edge weights tie, so trees are compared through the quantities
// the simulator actually consumes — all of which are invariant across every
// MST of the same graph and must match BITWISE (EXPECT_EQ on doubles):
// the sorted edge-weight multiset, the bottleneck, and the full
// largest-component breakpoint curve.
void expect_value_identical(std::size_t n, std::span<const WeightedEdge> dense,
                            std::span<const WeightedEdge> grid) {
  ASSERT_EQ(dense.size(), grid.size());
  ASSERT_EQ(grid.size(), n <= 1 ? 0u : n - 1);

  const auto dense_weights = sorted_weights(dense);
  const auto grid_weights = sorted_weights(grid);
  for (std::size_t i = 0; i < dense_weights.size(); ++i) {
    EXPECT_EQ(dense_weights[i], grid_weights[i]) << "weight multiset differs at rank " << i;
  }
  EXPECT_EQ(tree_bottleneck(dense), tree_bottleneck(grid));

  // The grid tree must genuinely span.
  UnionFind dsu(n);
  for (const auto& edge : grid) {
    ASSERT_LT(edge.u, n);
    ASSERT_LT(edge.v, n);
    EXPECT_TRUE(dsu.unite(edge.u, edge.v)) << "cycle edge (" << edge.u << ", " << edge.v << ")";
  }
  if (n > 0) {
    EXPECT_EQ(dsu.largest_component_size(), n);
  }

  // The engine's output contract: edges sorted ascending by weight.
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end(),
                             [](const WeightedEdge& a, const WeightedEdge& b) {
                               return a.weight < b.weight;
                             }));

  const LargestComponentCurve dense_curve(n, {dense.begin(), dense.end()});
  const LargestComponentCurve grid_curve(n, {grid.begin(), grid.end()});
  const auto dense_bps = dense_curve.breakpoints();
  const auto grid_bps = grid_curve.breakpoints();
  ASSERT_EQ(dense_bps.size(), grid_bps.size());
  for (std::size_t i = 0; i < dense_bps.size(); ++i) {
    EXPECT_EQ(dense_bps[i].range, grid_bps[i].range) << "breakpoint range differs at " << i;
    EXPECT_EQ(dense_bps[i].size, grid_bps[i].size) << "breakpoint size differs at " << i;
  }
}

// Independent O(n^2 log n) reference: Kruskal over all pairs, no shared code
// with either dense Prim or the grid engine beyond the distance helpers.
template <int D>
std::vector<double> kruskal_reference_weights(const std::vector<Point<D>>& points) {
  struct Edge {
    double d2;
    std::size_t u, v;
  };
  std::vector<Edge> all;
  const std::size_t n = points.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      all.push_back({squared_distance(points[i], points[j]), i, j});
    }
  }
  std::sort(all.begin(), all.end(), [](const Edge& a, const Edge& b) { return a.d2 < b.d2; });
  UnionFind dsu(n);
  std::vector<double> weights;
  for (const Edge& e : all) {
    if (dsu.unite(e.u, e.v)) weights.push_back(covering_radius(e.d2));
  }
  std::sort(weights.begin(), weights.end());
  return weights;
}

// Points packed into a few tight clusters separated by empty space: the
// initial connectivity-threshold radius finds no spanning candidate graph,
// so the adaptive doubling loop must run several rounds.
template <int D>
std::vector<Point<D>> clustered_deployment(std::size_t n, const Box<D>& box,
                                           std::size_t clusters, double spread, Rng& rng) {
  const auto centers = uniform_deployment(clusters, box, rng);
  std::vector<Point<D>> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Point<D> p = centers[i % clusters];
    for (int axis = 0; axis < D; ++axis) {
      const double offset = rng.uniform(-spread, spread);
      p.coords[axis] = std::clamp(p.coords[axis] + offset, 0.0, box.side());
    }
    points.push_back(p);
  }
  return points;
}

template <int D>
void check_uniform_configs() {
  Rng rng(0x9E3779B9u + static_cast<unsigned>(D));
  for (std::size_t n : {2u, 3u, 7u, 31u, 32u, 33u, 100u, 300u}) {
    for (double side : {1.0, 50.0, 2000.0}) {
      const Box<D> box(side);
      const auto points = uniform_deployment(n, box, rng);
      EmstEngine<D> engine;
      const auto grid = engine.euclidean(points, box);
      const auto dense = euclidean_mst<D>(points);
      expect_value_identical(n, dense, grid);
      const auto reference = kruskal_reference_weights(points);
      const auto grid_sorted = sorted_weights(grid);
      ASSERT_EQ(reference.size(), grid_sorted.size()) << "n=" << n << " side=" << side;
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i], grid_sorted[i]) << "n=" << n << " side=" << side << " rank=" << i;
      }
    }
  }
}

TEST(EmstGrid, MatchesDenseAndKruskalUniform1D) { check_uniform_configs<1>(); }
TEST(EmstGrid, MatchesDenseAndKruskalUniform2D) { check_uniform_configs<2>(); }
TEST(EmstGrid, MatchesDenseAndKruskalUniform3D) { check_uniform_configs<3>(); }

TEST(EmstGrid, MatchesDenseOnClusteredConfigs) {
  Rng rng(42);
  const Box2 box(1000.0);
  for (std::size_t clusters : {2u, 5u}) {
    for (double spread : {0.5, 10.0}) {
      const auto points = clustered_deployment<2>(160, box, clusters, spread, rng);
      EmstEngine<2> engine;
      const auto grid = engine.euclidean(points, box);
      expect_value_identical(points.size(), euclidean_mst<2>(points), grid);
      // Clusters force the doubling loop past its first round.
      EXPECT_FALSE(engine.stats().dense_fallback);
      EXPECT_GE(engine.stats().rounds, 2u) << "clusters=" << clusters << " spread=" << spread;
    }
  }
}

TEST(EmstGrid, CollinearAndDuplicatePointsAreHandled) {
  // Collinear points with duplicates: many exactly-tied candidate edges.
  std::vector<Point2> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back({{static_cast<double>(i % 16), 5.0}});  // 4 copies of each of 16 spots
  }
  const Box2 box(20.0);
  EmstEngine<2> engine;
  expect_value_identical(points.size(), euclidean_mst<2>(points),
                         engine.euclidean(points, box));

  // All points coincident: every MST edge has weight 0.
  const std::vector<Point2> coincident(40, Point2{{3.0, 3.0}});
  const auto grid = engine.euclidean(coincident, box);
  ASSERT_EQ(grid.size(), coincident.size() - 1);
  for (const auto& edge : grid) EXPECT_EQ(edge.weight, 0.0);
  expect_value_identical(coincident.size(), euclidean_mst<2>(coincident), grid);
}

TEST(EmstGrid, EmptyAndSingletonInputs) {
  EmstEngine<2> engine;
  const Box2 box(10.0);
  const std::vector<Point2> none;
  const std::vector<Point2> one = {{{5.0, 5.0}}};
  EXPECT_TRUE(engine.euclidean(none, box).empty());
  EXPECT_TRUE(engine.euclidean(one, box).empty());
  EXPECT_TRUE(engine.torus(none, 10.0).empty());
  EXPECT_TRUE(engine.torus(one, 10.0).empty());
}

template <int D>
void check_torus_configs() {
  Rng rng(7u + static_cast<unsigned>(D));
  const auto torus_d2 = [](double side) {
    return [side](const Point<D>& a, const Point<D>& b) {
      return torus_squared_distance(a, b, side);
    };
  };
  for (std::size_t n : {2u, 16u, 40u, 200u}) {
    for (double side : {1.0, 100.0}) {
      const Box<D> box(side);
      const auto points = uniform_deployment(n, box, rng);
      EmstEngine<D> engine;
      const auto grid = engine.torus(points, side);
      const auto dense = mst_with_metric<D>(points, torus_d2(side));
      expect_value_identical(n, dense, grid);
      EXPECT_EQ(torus_critical_range<D>(points, side), tree_bottleneck(dense));
    }
  }
}

TEST(EmstGrid, TorusMatchesDenseTorusMetric1D) { check_torus_configs<1>(); }
TEST(EmstGrid, TorusMatchesDenseTorusMetric2D) { check_torus_configs<2>(); }
TEST(EmstGrid, TorusMatchesDenseTorusMetric3D) { check_torus_configs<3>(); }

TEST(EmstGrid, TorusClusteredConfigsWrapAcrossBoundary) {
  // Clusters hugging opposite edges of the region: the torus MST must cross
  // the wrap seam, which only the wrap-aware neighbor scan can see.
  Rng rng(11);
  const double side = 100.0;
  std::vector<Point2> points;
  for (std::size_t i = 0; i < 60; ++i) {
    const double y = rng.uniform(0.0, side);
    points.push_back({{rng.uniform(0.0, 2.0), y}});
    points.push_back({{rng.uniform(side - 2.0, side), y}});
  }
  EmstEngine<2> engine;
  const auto grid = engine.torus(points, side);
  const auto dense = mst_with_metric<2>(points, [side](const Point2& a, const Point2& b) {
    return torus_squared_distance(a, b, side);
  });
  expect_value_identical(points.size(), dense, grid);
  // Wrap distances across the seam (~<= 4) are far below the Euclidean gap
  // (~96), so the torus bottleneck must be much smaller.
  EXPECT_LT(tree_bottleneck(grid), 0.5 * tree_bottleneck(euclidean_mst<2>(points)));
}

TEST(EmstGrid, EngineReuseIsBitIdenticalToFreshEngines) {
  Rng rng(123);
  const Box2 box(300.0);
  EmstEngine<2> reused;
  // Descending sizes so reuse shrinks the live ranges inside pooled buffers.
  for (std::size_t n : {500u, 128u, 40u, 8u, 200u}) {
    const auto points = uniform_deployment(n, box, rng);
    const auto from_reused = reused.euclidean(points, box);
    EmstEngine<2> fresh;
    const auto from_fresh = fresh.euclidean(points, box);
    ASSERT_EQ(from_reused.size(), from_fresh.size());
    for (std::size_t i = 0; i < from_fresh.size(); ++i) {
      EXPECT_EQ(from_reused[i].u, from_fresh[i].u);
      EXPECT_EQ(from_reused[i].v, from_fresh[i].v);
      EXPECT_EQ(from_reused[i].weight, from_fresh[i].weight);
    }
    // Alternate metric between solves: no state may leak across calls.
    const auto torus_reused = reused.torus(points, box.side());
    EmstEngine<2> torus_fresh;
    const auto torus_expected = torus_fresh.torus(points, box.side());
    ASSERT_EQ(torus_reused.size(), torus_expected.size());
    for (std::size_t i = 0; i < torus_expected.size(); ++i) {
      EXPECT_EQ(torus_reused[i].weight, torus_expected[i].weight);
    }
  }
}

TEST(EmstGrid, StatsReflectChosenPath) {
  Rng rng(5);
  const Box2 box(100.0);

  const auto tiny = uniform_deployment(EmstEngine<2>::kDenseCutoff - 1, box, rng);
  EmstEngine<2> engine;
  engine.euclidean(tiny, box);
  EXPECT_TRUE(engine.stats().dense_fallback);

  const auto large = uniform_deployment(512, box, rng);
  engine.euclidean(large, box);
  EXPECT_FALSE(engine.stats().dense_fallback);
  EXPECT_GE(engine.stats().rounds, 1u);
  EXPECT_GT(engine.stats().final_radius, 0.0);
  EXPECT_GE(engine.stats().candidate_edges, large.size() - 1);
}

template <int D>
double brute_force_isolation(const std::vector<Point<D>>& points) {
  double worst = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double nn2 = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i != j) nn2 = std::min(nn2, squared_distance(points[i], points[j]));
    }
    worst = std::max(worst, nn2);
  }
  return covering_radius(worst);
}

TEST(EmstGrid, NearestNeighborRangeMatchesBruteForce) {
  Rng rng(99);
  for (std::size_t n : {2u, 10u, 33u, 150u}) {
    const Box2 box(80.0);
    const auto points = uniform_deployment(n, box, rng);
    EmstEngine<2> engine;
    EXPECT_EQ(engine.max_nearest_neighbor_range(points, box), brute_force_isolation(points))
        << "n=" << n;
    EXPECT_EQ(isolation_range<2>(points, box), brute_force_isolation(points));
    EXPECT_EQ(isolation_range<2>(points), brute_force_isolation(points));
  }
  // Clustered sets: a lone far cluster forces extra doubling rounds in the
  // nearest-neighbor search too.
  const Box2 box(1000.0);
  const auto clustered = clustered_deployment<2>(120, box, 3, 1.0, rng);
  EmstEngine<2> engine;
  EXPECT_EQ(engine.max_nearest_neighbor_range(clustered, box), brute_force_isolation(clustered));
}

TEST(EmstGrid, IsolationRangeWithoutBoxHandlesNegativeCoordinates) {
  // Negative coordinates fall outside every deployment box, so the box-less
  // overload must take its dense path and still be exact.
  const std::vector<Point2> points = {
      {{-5.0, -5.0}}, {{-4.0, -5.0}}, {{3.0, 2.0}}, {{3.5, 2.0}}, {{10.0, -1.0}}};
  EXPECT_EQ(isolation_range<2>(points), brute_force_isolation(points));
}

TEST(EmstGrid, CriticalRangeOverloadsAgree) {
  Rng rng(77);
  for (int rep = 0; rep < 5; ++rep) {
    const Box2 box(60.0);
    const auto points = uniform_deployment(90, box, rng);
    EXPECT_EQ(critical_range<2>(points, box), critical_range<2>(points));
    const Box3 box3(30.0);
    const auto points3 = uniform_deployment(64, box3, rng);
    EXPECT_EQ(critical_range<3>(points3, box3), critical_range<3>(points3));
  }
}

TEST(EmstGrid, WorkspaceCurveBuilderMatchesLegacyBuilder) {
  Rng rng(31337);
  const Box2 box(200.0);
  TraceWorkspace<2> workspace;
  for (std::size_t n : {2u, 33u, 120u}) {
    const auto points = uniform_deployment(n, box, rng);
    const auto legacy = largest_component_curve<2>(points);
    const auto one_shot = largest_component_curve<2>(points, box);
    const auto pooled = largest_component_curve<2>(points, box, workspace);
    for (const auto* curve : {&one_shot, &pooled}) {
      const auto expected = legacy.breakpoints();
      const auto actual = curve->breakpoints();
      ASSERT_EQ(expected.size(), actual.size()) << "n=" << n;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].range, actual[i].range);
        EXPECT_EQ(expected[i].size, actual[i].size);
      }
    }
  }
}


// ----- sort_candidate_edges: the candidate sort both engines share ---------
// Differential against std::sort under the (d2, u, v) comparator: the radix
// must reproduce the unique sorted sequence bit for bit on every size where
// the key width or the pass count changes, and on the inputs that stress the
// equal-key repair (ties, key collisions, the key range's two ends).

bool same_sequence(const std::vector<CandidateEdge>& a, const std::vector<CandidateEdge>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].d2, &b[i].d2, sizeof(double)) != 0 || a[i].u != b[i].u ||
        a[i].v != b[i].v) {
      return false;
    }
  }
  return true;
}

void expect_sorts_like_std_sort(std::vector<CandidateEdge> edges, double d2_bound,
                                const std::string& label) {
  std::vector<CandidateEdge> expected = edges;
  std::sort(expected.begin(), expected.end(), candidate_less);
  std::vector<CandidateEdge> scratch;
  sort_candidate_edges(edges, d2_bound, scratch);
  EXPECT_TRUE(same_sequence(edges, expected)) << label << " size=" << edges.size();
}

/// `size` edges with distinct (u, v) pairs (v - u - 1 is the element index)
/// in random order; `make_d2(i)` picks each squared distance.
template <typename MakeD2>
std::vector<CandidateEdge> make_edges(std::size_t size, Rng& rng, MakeD2&& make_d2) {
  std::vector<CandidateEdge> edges(size);
  for (std::size_t i = 0; i < size; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.next_u64() % 100000);
    edges[i] = {make_d2(i), u, u + 1 + static_cast<std::uint32_t>(i)};
  }
  return edges;
}

/// 0, 1, 2, 15-17, 255-257 and 2^k - 1, 2^k, 2^k + 1 up to 2^20: crosses
/// every change of the key width and of the pass count (at 4 and 2^10; the
/// key reaches its 24-bit cap at 2^17).
std::vector<std::size_t> sort_sizes() {
  std::vector<std::size_t> sizes = {0, 1, 2, 15, 16, 17, 255, 256, 257};
  for (int k = 2; k <= 20; ++k) {
    const std::size_t p = std::size_t{1} << k;
    for (const std::size_t size : {p - 1, p, p + 1}) {
      if (std::find(sizes.begin(), sizes.end(), size) == sizes.end()) sizes.push_back(size);
    }
  }
  return sizes;
}

TEST(CandidateSort, MatchesStdSortAcrossEveryPassCountChange) {
  Rng rng(0x5027ull);
  const double bound = 37.5;
  for (const std::size_t size : sort_sizes()) {
    // Mixed input: uniform d2 plus every edge case of the key map — zeros,
    // values at the bound, 1-ulp neighbours that collide on a key, and a
    // handful of repeated values tied on d2 with distinct (u, v).
    const double ulp_base = 0.3 * bound;
    const auto edges = make_edges(size, rng, [&](std::size_t i) {
      switch (rng.next_u64() % 8) {
        case 0:
          return 0.0;
        case 1:
          return bound;
        case 2: {
          double x = ulp_base;
          for (std::size_t step = 0; step < i % 5; ++step) x = std::nextafter(x, bound);
          return x;
        }
        case 3:
          return (1.0 + static_cast<double>(i % 3)) * bound / 7.0;
        default:
          return rng.uniform(0.0, bound);
      }
    });
    expect_sorts_like_std_sort(edges, bound, "mixed");
  }
}

TEST(CandidateSort, AllEqualDistancesSortByEndpoints) {
  Rng rng(0x5028ull);
  for (const std::size_t size : {std::size_t{2}, std::size_t{17}, std::size_t{257},
                                 std::size_t{4097}}) {
    for (const double d2 : {0.0, 0.25, 1.0}) {
      const auto edges = make_edges(size, rng, [d2](std::size_t) { return d2; });
      expect_sorts_like_std_sort(edges, 1.0, "all-equal d2=" + std::to_string(d2));
    }
  }
}

TEST(CandidateSort, OneUlpApartValuesCollideAndStillSortExactly) {
  // Consecutive doubles map to the same key at any key width: the whole
  // input is one equal-key run that the comparator repair must order.
  Rng rng(0x5029ull);
  for (const std::size_t size : {std::size_t{16}, std::size_t{1025}, std::size_t{65537}}) {
    std::vector<double> ladder(size);
    double x = 0.5;
    for (double& value : ladder) {
      value = x;
      x = std::nextafter(x, 1.0);
    }
    const auto edges = make_edges(size, rng, [&](std::size_t) {
      return ladder[static_cast<std::size_t>(rng.next_u64() % size)];
    });
    expect_sorts_like_std_sort(edges, 1.0, "ulp-ladder");
  }
}

TEST(CandidateSort, DegenerateBoundsCostSpeedNotOrder) {
  // A bound below some d2 clamps them to the top key; a zero bound maps
  // every key to 0. Either way the repair pass restores the exact order.
  Rng rng(0x502Aull);
  const auto edges = make_edges(3000, rng, [&](std::size_t) { return rng.uniform(0.0, 8.0); });
  expect_sorts_like_std_sort(edges, 2.0, "bound too small");
  const auto zeros = make_edges(300, rng, [](std::size_t) { return 0.0; });
  expect_sorts_like_std_sort(zeros, 0.0, "zero bound");
}

// --- dense_emst: the strict-order dense solver -----------------------------
// dense_emst must return the unique tree under the strict (d2, u, v) order,
// labelled u < v and sorted the same way — the tree filtered Kruskal accepts.
// The inputs below are built to tie: integer lattices (every lattice edge
// weighs the same), duplicated points (d2 == 0) and lattices that fill a
// torus period (wrap edges tie the interior ones). Node ids are shuffled so
// they do not follow the geometry.

/// All-pairs Kruskal under candidate_less: the strict-order tree in
/// acceptance order. Shares only the metric and the order with the solvers.
template <int D, bool Torus>
std::vector<WeightedEdge> strict_order_kruskal(const std::vector<Point<D>>& points, double side) {
  std::vector<CandidateEdge> all;
  const std::size_t n = points.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d2 = Torus ? torus_squared_distance(points[i], points[j], side)
                              : squared_distance(points[i], points[j]);
      all.push_back({d2, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    }
  }
  std::sort(all.begin(), all.end(), candidate_less);
  UnionFind dsu(n);
  std::vector<WeightedEdge> tree;
  for (const CandidateEdge& e : all) {
    if (dsu.unite(e.u, e.v)) tree.push_back({e.u, e.v, covering_radius(e.d2)});
  }
  return tree;
}

void expect_same_tree(std::span<const WeightedEdge> want, std::span<const WeightedEdge> got,
                      const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].u, got[i].u) << label << " edge " << i;
    EXPECT_EQ(want[i].v, got[i].v) << label << " edge " << i;
    EXPECT_EQ(0, std::memcmp(&want[i].weight, &got[i].weight, sizeof(double)))
        << label << " edge " << i << ": " << want[i].weight << " vs " << got[i].weight;
  }
}

/// dense_emst against the all-pairs reference and against EmstEngine, edge
/// for edge. Returns true when the engine took its grid path.
template <int D, bool Torus>
bool check_dense_solver(const std::vector<Point<D>>& points, double side,
                        const std::string& label) {
  DenseEmstWorkspace<D> workspace;
  std::vector<WeightedEdge> dense;
  dense_emst<D, Torus>(points, side, workspace, dense);
  expect_same_tree(strict_order_kruskal<D, Torus>(points, side), dense, label + " reference");
  EmstEngine<D> engine;
  const auto engine_tree =
      Torus ? engine.torus(points, side) : engine.euclidean(points, Box<D>(side));
  expect_same_tree(engine_tree, dense, label + " engine");
  // A second solve on the warm workspace gives the same tree.
  std::vector<WeightedEdge> again;
  dense_emst<D, Torus>(points, side, workspace, again);
  expect_same_tree(dense, again, label + " warm");
  return !engine.stats().dense_fallback;
}

template <int D>
std::vector<Point<D>> shuffled(std::vector<Point<D>> points, Rng& rng) {
  for (std::size_t i = points.size(); i > 1; --i) {
    std::swap(points[i - 1], points[rng.uniform_index(i)]);
  }
  return points;
}

/// Every point of {0, .., k-1}^D, scaled by `spacing`, in shuffled order.
template <int D>
std::vector<Point<D>> lattice(std::size_t k, double spacing, Rng& rng) {
  std::vector<Point<D>> points;
  std::size_t total = 1;
  for (int a = 0; a < D; ++a) total *= k;
  for (std::size_t index = 0; index < total; ++index) {
    Point<D> p;
    std::size_t rest = index;
    for (int a = 0; a < D; ++a) {
      p.coords[static_cast<std::size_t>(a)] = static_cast<double>(rest % k) * spacing;
      rest /= k;
    }
    points.push_back(p);
  }
  return shuffled<D>(std::move(points), rng);
}

template <int D>
void check_dense_lattices() {
  Rng rng(0x1A77u + static_cast<unsigned>(D));
  // k^D nodes: below the dense cutoff, and above it on the grid path.
  const std::size_t small_k = D == 1 ? 20 : (D == 2 ? 5 : 3);
  const std::size_t large_k = D == 1 ? 48 : (D == 2 ? 8 : 4);
  for (const std::size_t k : {small_k, large_k}) {
    for (const double spacing : {1.0, 0.1}) {
      // On the box the lattice sits inside [0, k * spacing]; on the torus of
      // that side it fills the period, so each wrap edge ties a lattice edge.
      const double side = static_cast<double>(k) * spacing;
      const auto points = lattice<D>(k, spacing, rng);
      const std::string label =
          "D=" + std::to_string(D) + " k=" + std::to_string(k) + " spacing=" +
          std::to_string(spacing);
      const bool box_grid = check_dense_solver<D, false>(points, side, label + " box");
      const bool torus_grid = check_dense_solver<D, true>(points, side, label + " torus");
      if (k == large_k) {
        EXPECT_TRUE(box_grid) << label;
        EXPECT_TRUE(torus_grid) << label;
      }
    }
  }
}

TEST(DenseEmst, MatchesStrictOrderKruskalOnLattices1D) { check_dense_lattices<1>(); }
TEST(DenseEmst, MatchesStrictOrderKruskalOnLattices2D) { check_dense_lattices<2>(); }
TEST(DenseEmst, MatchesStrictOrderKruskalOnLattices3D) { check_dense_lattices<3>(); }

template <int D>
void check_dense_duplicates() {
  Rng rng(0xD0Bu + static_cast<unsigned>(D));
  const double side = 20.0;
  for (const std::size_t distinct : {4u, 12u, 40u}) {
    // Each point appears 1-3 times: d2 == 0 edges, and ties among them.
    std::vector<Point<D>> points;
    for (const auto& p : uniform_deployment(distinct, Box<D>(side), rng)) {
      const std::size_t copies = 1 + rng.uniform_index(3);
      for (std::size_t c = 0; c < copies; ++c) points.push_back(p);
    }
    points = shuffled<D>(std::move(points), rng);
    const std::string label = "D=" + std::to_string(D) + " n=" + std::to_string(points.size());
    check_dense_solver<D, false>(points, side, label + " box");
    check_dense_solver<D, true>(points, side, label + " torus");
  }
  // Every point in one place: the whole tree is d2 == 0 ties.
  const std::vector<Point<D>> stacked(37, uniform_deployment(1, Box<D>(side), rng)[0]);
  check_dense_solver<D, false>(stacked, side, "stacked box");
  check_dense_solver<D, true>(stacked, side, "stacked torus");
}

TEST(DenseEmst, MatchesStrictOrderKruskalOnDuplicatePoints1D) { check_dense_duplicates<1>(); }
TEST(DenseEmst, MatchesStrictOrderKruskalOnDuplicatePoints2D) { check_dense_duplicates<2>(); }
TEST(DenseEmst, MatchesStrictOrderKruskalOnDuplicatePoints3D) { check_dense_duplicates<3>(); }

TEST(DenseEmst, MatchesStrictOrderKruskalOnTorusWrapTies) {
  // Pairs mirrored across the torus seam: the wrap distance of each pair
  // equals its partner pair's interior distance, so the order between them
  // comes down to the endpoint ids.
  Rng rng(0x5EA7u);
  const double side = 16.0;
  std::vector<Point2> points;
  for (std::size_t i = 0; i < 20; ++i) {
    const double x = std::floor(rng.uniform(0.0, 4.0));
    const double y = std::floor(rng.uniform(0.0, side));
    points.push_back({{x, y}});
    points.push_back({{side - 1.0 - x, y}});
    points.push_back({{x + 0.5, std::fmod(y + 8.0, side)}});
  }
  points = shuffled<2>(std::move(points), rng);
  check_dense_solver<2, true>(points, side, "seam");
  check_dense_solver<2, false>(points, side, "seam box");
}

TEST(DenseEmst, MatchesStrictOrderKruskalOnUniformPoints) {
  Rng rng(0xC0FFEEu);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 31u, 32u, 129u, 300u}) {
    for (const double side : {1.0, 64.0}) {
      const auto points2 = uniform_deployment(n, Box2(side), rng);
      const auto points3 = uniform_deployment(n, Box3(side), rng);
      const std::string label = "n=" + std::to_string(n) + " side=" + std::to_string(side);
      check_dense_solver<2, false>(points2, side, label + " 2-D box");
      check_dense_solver<2, true>(points2, side, label + " 2-D torus");
      check_dense_solver<3, false>(points3, side, label + " 3-D box");
      check_dense_solver<3, true>(points3, side, label + " 3-D torus");
    }
  }
}

}  // namespace
}  // namespace manet
