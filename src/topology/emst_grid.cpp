#include "topology/emst_grid.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "geometry/torus.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace manet {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Counters shared by every EmstEngine<D> instantiation and dense_emst. One
/// bundle behind a function-local static so the names are registered exactly
/// once, and the hot loops below touch nothing heavier than a thread-local
/// add. These are pure *work* counters — how many solves/rounds/rebuilds the
/// input demanded — so they are deterministic for a fixed input regardless
/// of thread count. A dense_emst call counts as a solve and a dense fallback
/// whichever engine made it.
struct EmstMetrics {
  metrics::Counter solves = metrics::counter("emst.solves");
  metrics::Counter rounds = metrics::counter("emst.doubling_rounds");
  metrics::Counter dense = metrics::counter("emst.dense_fallbacks");
  metrics::Counter rebuilds = metrics::counter("emst.grid_rebuilds");
};

EmstMetrics& emst_metrics() {
  static EmstMetrics bundle;
  return bundle;
}

}  // namespace

void sort_candidate_edges(std::vector<CandidateEdge>& edges, double d2_bound,
                          std::vector<CandidateEdge>& scratch) {
  const std::size_t size = edges.size();
  if (size < 2) return;

  // Key: floor(d2 * 2^bits / d2_bound), clamped to the top key. Double
  // multiplication by a positive constant rounds monotonically and the
  // clamp is monotone too, so the key never inverts the d2 order. A key
  // range of ~64x the size keeps equal-key runs short (d2 of in-radius
  // pairs is near uniform in 2-D) while the size sets the pass count:
  // 1 pass below 4 edges, 2 below 2^10, 3 from there on. The key stops
  // widening at 24 bits: on the multi-million-candidate rebuild pools of
  // n = 131072 traces a fourth pass cost ~10% more sort time than the short
  // runs of equal keys it would save. A non-positive bound maps every key
  // to 0 — one run, sorted exactly.
  constexpr int kSpareKeyBits = 6;
  constexpr int kMaxKeyBits = 24;
  constexpr int kDigitBits = 8;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const int key_bits =
      std::min(kMaxKeyBits, static_cast<int>(std::bit_width(size)) + kSpareKeyBits);
  const int passes = (key_bits + kDigitBits - 1) / kDigitBits;
  const double top_key = std::ldexp(1.0, key_bits) - 1.0;
  const double scale = d2_bound > 0.0 ? std::ldexp(1.0, key_bits) / d2_bound : 0.0;
  const auto key_of = [scale, top_key](const CandidateEdge& c) noexcept {
    return static_cast<std::uint32_t>(std::min(c.d2 * scale, top_key));
  };

  std::array<std::uint32_t, kMaxKeyBits / kDigitBits * kBuckets> hist;
  std::fill_n(hist.begin(), static_cast<std::size_t>(passes) * kBuckets, 0u);
  for (const CandidateEdge& c : edges) {
    const std::uint32_t key = key_of(c);
    for (int pass = 0; pass < passes; ++pass) {
      ++hist[static_cast<std::size_t>(pass) * kBuckets +
             ((key >> (kDigitBits * pass)) & (kBuckets - 1))];
    }
  }

  scratch.resize(size);
  CandidateEdge* src = edges.data();
  CandidateEdge* dst = scratch.data();
  for (int pass = 0; pass < passes; ++pass) {
    std::uint32_t* counts = hist.data() + static_cast<std::size_t>(pass) * kBuckets;
    // All elements share this digit: the scatter would be the identity.
    const auto first_used =
        std::find_if(counts, counts + kBuckets, [](std::uint32_t c) { return c != 0; });
    if (*first_used == size) continue;
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint32_t count = counts[b];
      counts[b] = offset;
      offset += count;
    }
    const int shift = kDigitBits * pass;
    for (std::size_t i = 0; i < size; ++i) {
      dst[counts[(key_of(src[i]) >> shift) & (kBuckets - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != edges.data()) edges.swap(scratch);

  // Repair equal-key runs with the exact comparator. Runs are almost always
  // length 1: one linear scan.
  std::size_t i = 0;
  while (i < size) {
    const std::uint32_t key = key_of(edges[i]);
    std::size_t j = i + 1;
    while (j < size && key_of(edges[j]) == key) ++j;
    if (j - i > 1) {
      std::sort(edges.begin() + static_cast<std::ptrdiff_t>(i),
                edges.begin() + static_cast<std::ptrdiff_t>(j), candidate_less);
    }
    i = j;
  }
}

template <int D>
double EmstEngine<D>::initial_radius(std::size_t n, double side) {
  return emst_initial_radius<D>(n, side);
}

namespace {

/// True when fringe slot a's edge into the tree precedes slot b's under the
/// strict (d2, u, v) order.
bool slot_edge_less(const std::vector<double>& best, const std::vector<std::uint64_t>& from,
                    const std::vector<std::uint32_t>& id, std::size_t a,
                    std::size_t b) noexcept {
  if (best[a] != best[b]) return best[a] < best[b];
  const std::uint64_t a_lo = std::min<std::uint64_t>(from[a], id[a]);
  const std::uint64_t b_lo = std::min<std::uint64_t>(from[b], id[b]);
  if (a_lo != b_lo) return a_lo < b_lo;
  return std::max<std::uint64_t>(from[a], id[a]) < std::max<std::uint64_t>(from[b], id[b]);
}

}  // namespace

template <int D, bool Torus>
void dense_emst(std::span<const Point<D>> points, double side, DenseEmstWorkspace<D>& workspace,
                std::vector<WeightedEdge>& out) {
  out.clear();
  const std::size_t n = points.size();
  if (n <= 1) return;
  emst_metrics().solves.increment();
  emst_metrics().dense.increment();

  // The fringe is kept compact: slot k holds node id[k], and a node that
  // joins the tree is overwritten by the last slot, so every pass is one
  // contiguous kernel run over the nodes still outside.
  PointStore<D>& fringe = workspace.fringe;
  std::vector<std::uint32_t>& id = workspace.id;
  std::vector<double>& best = workspace.best;
  std::vector<std::uint64_t>& from = workspace.from;
  fringe.assign(points);
  id.resize(n);
  for (std::size_t k = 0; k < n; ++k) id[k] = static_cast<std::uint32_t>(k);
  best.assign(n, kInf);
  from.assign(n, 0);
  std::vector<CandidateEdge>& tree = workspace.edges;
  tree.clear();

  std::array<double, static_cast<std::size_t>(D)> q{};
  std::uint64_t source = 0;
  std::size_t count = n;
  std::size_t joined = 0;  // node 0 starts the tree
  double d2_bound = 0.0;
  for (;;) {
    for (int a = 0; a < D; ++a) {
      double* axis = fringe.axis(a);
      q[static_cast<std::size_t>(a)] = axis[joined];
      axis[joined] = axis[count - 1];
    }
    id[joined] = id[count - 1];
    best[joined] = best[count - 1];
    from[joined] = from[count - 1];
    if (--count == 0) break;

    const kernels::AxisPointers<D> axes = fringe.axes();
    const kernels::PrimPass pass = kernels::dense_prim_pass<D, Torus>(
        axes, count, q.data(), side, source, best.data(), from.data());
    joined = pass.next;
    if (pass.tie) {
      // Some d2 equalities: the kernel kept the first source on a relaxation
      // tie and the lowest slot on a minimum tie, which need not be what the
      // (d2, u, v) order picks. For a fixed fringe node the order between two
      // equal-d2 tree edges is the order of their tree endpoints, so a tied
      // relaxation keeps the smaller source; then the minimum is re-chosen
      // with the full comparison.
      const Point<D>& last = points[source];
      for (std::size_t k = 0; k < count; ++k) {
        const Point<D>& node = points[id[k]];
        const double d2 = Torus ? torus_squared_distance(node, last, side)
                                : squared_distance(node, last);
        if (d2 == best[k] && source < from[k]) from[k] = source;
      }
      joined = 0;
      for (std::size_t k = 1; k < count; ++k) {
        if (slot_edge_less(best, from, id, k, joined)) joined = k;
      }
    }
    const std::uint32_t node = id[joined];
    const auto other = static_cast<std::uint32_t>(from[joined]);
    tree.push_back({best[joined], std::min(node, other), std::max(node, other)});
    d2_bound = std::max(d2_bound, best[joined]);
    source = node;
  }

  sort_candidate_edges(tree, d2_bound, workspace.scratch);
  out.reserve(n - 1);
  for (const CandidateEdge& c : tree) out.push_back({c.u, c.v, covering_radius(c.d2)});
  MANET_ENSURES(out.size() + 1 == n);
}

template void dense_emst<1, false>(std::span<const Point<1>>, double, DenseEmstWorkspace<1>&,
                                   std::vector<WeightedEdge>&);
template void dense_emst<2, false>(std::span<const Point<2>>, double, DenseEmstWorkspace<2>&,
                                   std::vector<WeightedEdge>&);
template void dense_emst<3, false>(std::span<const Point<3>>, double, DenseEmstWorkspace<3>&,
                                   std::vector<WeightedEdge>&);
template void dense_emst<1, true>(std::span<const Point<1>>, double, DenseEmstWorkspace<1>&,
                                  std::vector<WeightedEdge>&);
template void dense_emst<2, true>(std::span<const Point<2>>, double, DenseEmstWorkspace<2>&,
                                  std::vector<WeightedEdge>&);
template void dense_emst<3, true>(std::span<const Point<3>>, double, DenseEmstWorkspace<3>&,
                                  std::vector<WeightedEdge>&);

template <int D>
template <bool Torus>
std::span<const WeightedEdge> EmstEngine<D>::solve(std::span<const Point<D>> points,
                                                   double side) {
  MANET_EXPECTS(side > 0.0);
  stats_ = {};
  mst_.clear();
  const std::size_t n = points.size();
  if (n <= 1) return mst_;
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("EmstEngine: more than 2^32 points are not supported");
  }

  // The farthest any pair can be: at this radius the candidate graph is
  // complete, so the doubling search always terminates.
  const double r_max = Torus ? 0.5 * side * std::sqrt(static_cast<double>(D))
                             : side * std::sqrt(static_cast<double>(D));
  const double r0 = initial_radius(n, side);
  if (n < kDenseCutoff || r0 >= 0.5 * side) {
    // Tiny inputs or near-complete candidate graphs: the grid cannot prune
    // enough pairs to pay for itself.
    stats_.dense_fallback = true;
    dense_emst<D, Torus>(points, side, dense_, mst_);
    return mst_;
  }

  emst_metrics().solves.increment();
  const Box<D> box(side);
  double radius = std::min(r0, r_max);
  for (;;) {
    ++stats_.rounds;
    emst_metrics().rounds.increment();
    // Rebin at the current radius: rebuild only ever coarsens the cell size
    // upward, so the query below always satisfies radius <= cell_size and
    // never trips the CellGrid precondition, no matter how far the doubling
    // has pushed the radius.
    grid_.rebuild(points, box, radius);
    emst_metrics().rebuilds.increment();
    MANET_INVARIANT(radius <= grid_.max_query_radius());

    candidates_.clear();
    const auto collect = [this](std::size_t i, std::size_t j, double d2) {
      candidates_.push_back(
          {d2, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    };
    if constexpr (Torus) {
      grid_.for_each_torus_pair_within(radius, collect);
    } else {
      grid_.for_each_pair_within(radius, collect);
    }
    stats_.candidate_edges = candidates_.size();
    stats_.final_radius = radius;

    // Filtered Kruskal over the candidates. If the radius-r graph spans, its
    // MST is a genuine MST of the complete graph: every full-MST edge weighs
    // at most the bottleneck <= r, so all of them are among the candidates.
    sort_candidate_edges(candidates_, radius * radius, sort_scratch_);
    dsu_.reset(n);
    mst_.clear();
    for (const CandidateEdge& c : candidates_) {
      if (dsu_.unite(c.u, c.v)) {
        mst_.push_back({c.u, c.v, covering_radius(c.d2)});
        if (mst_.size() + 1 == n) break;
      }
    }
    if (mst_.size() + 1 == n) break;
    MANET_INVARIANT(radius < r_max);  // the complete graph always spans
    radius = std::min(radius * 2.0, r_max);
  }
  MANET_ENSURES(mst_.size() + 1 == n);
  return mst_;
}

template <int D>
std::span<const WeightedEdge> EmstEngine<D>::euclidean(std::span<const Point<D>> points,
                                                       const Box<D>& box) {
  return solve<false>(points, box.side());
}

template <int D>
std::span<const WeightedEdge> EmstEngine<D>::torus(std::span<const Point<D>> points,
                                                   double side) {
  return solve<true>(points, side);
}

template <int D>
double EmstEngine<D>::max_nearest_neighbor_range(std::span<const Point<D>> points,
                                                 const Box<D>& box) {
  const std::size_t n = points.size();
  if (n <= 1) return 0.0;
  stats_ = {};

  nn2_.assign(n, kInf);
  if (n < kDenseCutoff) {
    stats_.dense_fallback = true;
    emst_metrics().dense.increment();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d2 = squared_distance(points[i], points[j]);
        nn2_[i] = std::min(nn2_[i], d2);
        nn2_[j] = std::min(nn2_[j], d2);
      }
    }
  } else {
    const double side = box.side();
    const double r_max = side * std::sqrt(static_cast<double>(D));
    double radius = std::min(initial_radius(n, side), r_max);
    for (;;) {
      ++stats_.rounds;
      emst_metrics().rounds.increment();
      grid_.rebuild(points, box, radius);
      emst_metrics().rebuilds.increment();
      nn2_.assign(n, kInf);
      grid_.for_each_pair_within(radius, [this](std::size_t i, std::size_t j, double d2) {
        nn2_[i] = std::min(nn2_[i], d2);
        nn2_[j] = std::min(nn2_[j], d2);
      });
      stats_.final_radius = radius;
      // A neighbor found within the radius is the exact nearest neighbor
      // (anything closer would also be within the radius); only points that
      // saw nothing force a wider search.
      if (std::none_of(nn2_.begin(), nn2_.end(), [](double d2) { return d2 == kInf; })) {
        break;
      }
      MANET_INVARIANT(radius < r_max);  // at the diagonal every pair is in range
      radius = std::min(radius * 2.0, r_max);
    }
  }

  double worst_nn2 = 0.0;
  for (double d2 : nn2_) worst_nn2 = std::max(worst_nn2, d2);
  MANET_ENSURES(worst_nn2 < kInf);
  return covering_radius(worst_nn2);
}

template class EmstEngine<1>;
template class EmstEngine<2>;
template class EmstEngine<3>;

}  // namespace manet
