#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/cell_grid.hpp"
#include "geometry/point.hpp"
#include "geometry/point_store.hpp"
#include "graph/union_find.hpp"
#include "topology/mst.hpp"

namespace manet {

/// Starting radius of the adaptive doubling search: the connectivity
/// threshold scale l * (log n / n)^(1/D) of random geometric graphs. Shared
/// by the batch engine below and the kinetic engine
/// (topology/emst_kinetic.hpp) so both select the dense fallback — and start
/// their searches — on exactly the same inputs.
template <int D>
inline double emst_initial_radius(std::size_t n, double side) noexcept {
  const double frac = std::log(static_cast<double>(n)) / static_cast<double>(n);
  return side * std::pow(frac, 1.0 / static_cast<double>(D));
}

/// Candidate edge of both EMST engines (this file and
/// topology/emst_kinetic.hpp): squared distance first so the sort key is
/// cache-local.
struct CandidateEdge {
  double d2;
  std::uint32_t u;
  std::uint32_t v;
};

/// The strict (d2, u, v) total order filtered Kruskal runs under. (u, v) is
/// unique per pair, so every candidate set has exactly one sorted sequence.
inline bool candidate_less(const CandidateEdge& a, const CandidateEdge& b) noexcept {
  if (a.d2 != b.d2) return a.d2 < b.d2;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

/// Sorts `edges` into the candidate_less order; the result is exactly the
/// std::sort sequence. Every edge must satisfy 0 <= d2 <= d2_bound (a bound
/// that is too small costs speed, never order). Size-adaptive stable LSD
/// radix: a monotone rescaling of d2 to a key of bit_width(size) + 6 bits
/// (at most 24), ordered by 1-3 passes of 8-bit digits, then every run of
/// equal keys — rare collisions and genuine d2 ties — is re-sorted with the
/// exact comparator. `scratch` is pooled scatter space; the two vectors may
/// trade buffers.
void sort_candidate_edges(std::vector<CandidateEdge>& edges, double d2_bound,
                          std::vector<CandidateEdge>& scratch);

/// Pooled buffers of dense_emst. Keep one per engine: after the first solve
/// at a given n, further solves allocate nothing.
template <int D>
struct DenseEmstWorkspace {
  PointStore<D> fringe;              ///< coordinates of the fringe slots (SoA)
  std::vector<std::uint32_t> id;     ///< node of each fringe slot
  std::vector<double> best;          ///< smallest d2 from the tree to each slot
  std::vector<std::uint64_t> from;   ///< tree node at the far end of that d2
  std::vector<CandidateEdge> edges;  ///< tree edges in growth order, then sorted
  std::vector<CandidateEdge> scratch;
};

/// Dense EMST by Prim's algorithm, O(n^2) metric evaluations: the one dense
/// solver of both EMST engines (this file and topology/emst_kinetic.hpp).
/// Writes the n-1 tree edges of `points` (empty for n <= 1) into `out`,
/// under the squared Euclidean metric or, when Torus, the flat-torus metric
/// on [0, side]^D (`side` is read only then).
///
/// Each Prim pass is one kernels::dense_prim_pass over the compacted
/// fringe. Edges join under the strict (d2, u, v) order of candidate_less,
/// labelled u < v: a pass the kernel reports as tied is redone in scalar
/// code with the endpoint ids. The result is sorted with
/// sort_candidate_edges, so it is edge for edge — endpoints, order, weight
/// bits — the tree filtered Kruskal accepts from any candidate set holding
/// all pairs within its bottleneck: the unique minimum spanning tree under
/// that total order.
template <int D, bool Torus>
void dense_emst(std::span<const Point<D>> points, double side, DenseEmstWorkspace<D>& workspace,
                std::vector<WeightedEdge>& out);

/// Per-solve diagnostics of the adaptive EMST engine, exposed for the perf
/// bench (bench/perf_mst.cpp) and the property tests.
struct EmstGridStats {
  std::size_t rounds = 0;           ///< adaptive doubling rounds taken (grid path)
  std::size_t candidate_edges = 0;  ///< edges enumerated in the final round
  double final_radius = 0.0;        ///< radius at which the candidate graph spanned
  bool dense_fallback = false;      ///< true when the dense Prim path was selected
};

/// Grid-accelerated Euclidean MST engine: a filtered-Kruskal over the
/// candidate edges enumerated by a CellGrid at an adaptive doubling radius.
///
/// The search starts near the expected connectivity threshold
/// l * (log n / n)^(1/D) (the critical-range scale of random geometric
/// graphs), runs Kruskal over the pairs within that radius, and doubles the
/// radius — rebinning the grid so the `radius <= cell_size` query
/// precondition keeps holding — until the candidate graph spans. Expected
/// cost is O(n log n) per solve instead of dense Prim's O(n^2); tiny inputs
/// (n < kDenseCutoff) and pathologically dense thresholds (initial radius a
/// large fraction of the region side) take the dense Prim fallback, which is
/// faster there and needs no grid.
///
/// IDENTITY: both paths return the unique minimum spanning tree under the
/// strict (d2, u, v) order, sorted the same way, so the grid tree equals the
/// dense tree (dense_emst) edge for edge — endpoints, order and weight bits.
/// Against the reference Prim (`mst_with_metric` in topology/mst.hpp), which
/// labels and orders its edges differently, the edge-weight multiset is the
/// same — all minimum spanning trees of a graph share it — and weights go
/// through the same squared-distance + covering_radius arithmetic, so every
/// quantity the simulator derives from the tree (bottleneck / critical
/// radius, largest-component breakpoint curve, total weight) is
/// bit-identical. The golden MTRM checksums are the regression gate.
///
/// The engine is a reusable workspace: the grid, candidate buffer, union-find
/// and result tree all retain capacity across solves, so a hot loop (one
/// solve per mobility step) performs no steady-state heap allocations. It is
/// NOT thread-safe; use one engine per thread (see sim/trace_workspace.hpp).
template <int D>
class EmstEngine {
 public:
  /// n below which dense Prim beats building a grid.
  static constexpr std::size_t kDenseCutoff = 32;

  EmstEngine() = default;
  EmstEngine(const EmstEngine&) = delete;
  EmstEngine& operator=(const EmstEngine&) = delete;

  /// Euclidean MST of `points`, all of which must lie inside `box`. Returns
  /// n-1 edges sorted ascending by weight (empty for n <= 1), valid until
  /// the next call on this engine.
  std::span<const WeightedEdge> euclidean(std::span<const Point<D>> points, const Box<D>& box);

  /// MST under the flat-torus metric on [0, side]^D (geometry/torus.hpp).
  /// Same contract as `euclidean`; wrap-aware neighbor cells keep the grid
  /// acceleration exact across the region edges.
  std::span<const WeightedEdge> torus(std::span<const Point<D>> points, double side);

  /// The largest nearest-neighbor distance max_i min_{j != i} dist(i, j)
  /// (= isolation_range, topology/critical_range.hpp), via the same
  /// adaptive-radius grid machinery: a point's nearest neighbor found within
  /// the current radius is exact, so only points with no neighbor yet force
  /// a doubling round. Returns 0 for n <= 1.
  double max_nearest_neighbor_range(std::span<const Point<D>> points, const Box<D>& box);

  /// Diagnostics of the most recent solve.
  const EmstGridStats& stats() const noexcept { return stats_; }

 private:
  template <bool Torus>
  std::span<const WeightedEdge> solve(std::span<const Point<D>> points, double side);

  /// Starting radius of the doubling search: the connectivity threshold
  /// scale l * (log n / n)^(1/D).
  static double initial_radius(std::size_t n, double side);

  CellGrid<D> grid_;
  UnionFind dsu_{0};
  std::vector<CandidateEdge> candidates_;
  std::vector<CandidateEdge> sort_scratch_;
  std::vector<WeightedEdge> mst_;
  std::vector<double> nn2_;
  DenseEmstWorkspace<D> dense_;  ///< dense-fallback scratch, pooled like the rest
  EmstGridStats stats_;
};

/// One-shot convenience: grid-accelerated EMST without managing an engine.
template <int D>
std::vector<WeightedEdge> grid_euclidean_mst(std::span<const Point<D>> points,
                                             const Box<D>& box) {
  EmstEngine<D> engine;
  const auto edges = engine.euclidean(points, box);
  return {edges.begin(), edges.end()};
}

/// One-shot convenience: grid-accelerated torus-metric MST.
template <int D>
std::vector<WeightedEdge> grid_torus_mst(std::span<const Point<D>> points, double side) {
  EmstEngine<D> engine;
  const auto edges = engine.torus(points, side);
  return {edges.begin(), edges.end()};
}

}  // namespace manet
