#include "topology/emst_kinetic.hpp"

#include <algorithm>
// manet-lint: allow(thread-confinement) — for the engine-selection flag below; see its comment
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

namespace manet {

namespace {

/// Work counters shared by every KineticEmstEngine<D> instantiation, in the
/// same function-local-static bundle style as the batch engine's. Pure work
/// counters — deterministic for a fixed input at any thread count.
struct KineticMetrics {
  metrics::Counter traces = metrics::counter("kinetic.traces");
  metrics::Counter steps = metrics::counter("kinetic.steps");
  metrics::Counter incremental = metrics::counter("kinetic.incremental_repairs");
  metrics::Counter rebuilds = metrics::counter("kinetic.full_rebuilds");
  metrics::Counter growths = metrics::counter("kinetic.radius_growths");
  metrics::Counter shrinks = metrics::counter("kinetic.radius_shrinks");
  metrics::Counter dense = metrics::counter("kinetic.dense_traces");
  metrics::Counter mass_moves = metrics::counter("kinetic.mass_move_rebuilds");
  metrics::Counter kernel_runs = metrics::counter("kinetic.kernel_runs");
  metrics::Counter distance_evals = metrics::counter("kinetic.distance_evals");
  metrics::Counter delta_pairs = metrics::counter("kinetic.delta_pairs");
  metrics::Counter dense_steps = metrics::counter("kinetic.dense_steps");
  metrics::Counter pool_rederives = metrics::counter("kinetic.pool_rederives");
};

KineticMetrics& kinetic_metrics() {
  static KineticMetrics bundle;
  return bundle;
}

bool environment_kinetic_default() {
  const char* text = std::getenv("MANET_KINETIC");
  if (text == nullptr || *text == '\0') return true;
  const std::string_view value(text);
  return !(value == "0" || value == "off" || value == "OFF" || value == "false" ||
           value == "FALSE");
}

/// -1 = defer to MANET_KINETIC, 0 = forced off, 1 = forced on. Atomic only
/// so concurrent trace workers can read the selection without a data race;
/// the value never feeds a result (both engines are bit-identical).
// manet-lint: allow(thread-confinement) — engine-selection flag read concurrently by trace workers; it selects between two bit-identical engines and never influences any computed value
std::atomic<int> g_kinetic_mode{-1};

}  // namespace

bool kinetic_enabled() noexcept {
  const int mode = g_kinetic_mode.load(std::memory_order_relaxed);
  if (mode >= 0) return mode != 0;
  static const bool from_environment = environment_kinetic_default();
  return from_environment;
}

void set_kinetic_mode(KineticMode mode) noexcept {
  int value = -1;
  if (mode == KineticMode::kForceOn) value = 1;
  if (mode == KineticMode::kForceOff) value = 0;
  g_kinetic_mode.store(value, std::memory_order_relaxed);
}

template <int D>
std::array<std::size_t, D> KineticEmstEngine<D>::cell_coords(
    const Point<D>& p) const noexcept {
  // Same arithmetic as CellGrid::cell_coords so boundary-sitting coordinates
  // bin consistently in both structures.
  std::array<std::size_t, D> c{};
  for (int i = 0; i < D; ++i) {
    const double x = p.coords[i] / cell_size_;
    auto idx = static_cast<std::size_t>(x < 0.0 ? 0.0 : x);
    c[i] = std::min(idx, cells_per_axis_ - 1);
  }
  return c;
}

template <int D>
std::size_t KineticEmstEngine<D>::flat_index(
    const std::array<std::size_t, D>& c) const noexcept {
  std::size_t idx = 0;
  for (int i = D - 1; i >= 0; --i) idx = idx * cells_per_axis_ + c[i];
  return idx;
}

template <int D>
void KineticEmstEngine<D>::rebuild_kinetic_grid(std::span<const Point<D>> points) {
  // Mirror CellGrid's clamping: cap the cell count at ~4x the point count
  // and at 2^12 per axis; clamping only ever coarsens, so cell_size_ >=
  // radius_ and the 3^D neighborhood always covers the query radius.
  constexpr std::size_t kMaxCellsPerAxis = 1u << 12;
  const double budget = 4.0 * static_cast<double>(n_) + 64.0;
  const auto per_axis_budget =
      static_cast<std::size_t>(std::pow(budget, 1.0 / static_cast<double>(D)));
  const std::size_t max_per_axis =
      std::min(kMaxCellsPerAxis, std::max<std::size_t>(1, per_axis_budget));

  // Prefer cells of ~radius/2 with a +-2-cell scan window: the scanned area
  // per query drops to (5/6)^D of radius-sized cells' 3^D neighborhood.
  // Fall back to radius-sized cells (+-1 window) when the region or the
  // budget cannot fit at least five fine cells per axis.
  const auto fine_per_axis = static_cast<std::size_t>(2.0 * side_ / radius_);
  if (std::min(fine_per_axis, max_per_axis) >= 5) {
    cells_per_axis_ = std::min(fine_per_axis, max_per_axis);
    near_window_ = 2;
  } else {
    cells_per_axis_ = static_cast<std::size_t>(side_ / radius_);
    cells_per_axis_ = std::max<std::size_t>(1, std::min(cells_per_axis_, max_per_axis));
    near_window_ = 1;
  }

  // One-cell regime. A mover's gridded scan makes one kernel run per axis-0
  // row of its window — (2w+1)^(D-1) rows, the window clipped to the grid —
  // and evaluates the ~n * (window cells per axis / cells per axis)^D nodes
  // in it; with every node in one cell it makes one run over all n. In units
  // of the kernel's per-point cost, with kScanRunCost per run, one cell is
  // no dearer when kScanRunCost + n <= rows * kScanRunCost + window points.
  // The constant is the measured ratio of the two costs: a least-squares fit
  // of the per-step time difference between the two layouts on identical
  // traces (paper drunkard and waypoint, l = n^2, n = 32..512, D = 2 and 3)
  // against the differences in the kinetic.kernel_runs and
  // kinetic.distance_evals counters gave ~45 ns per run and ~1.0 ns per
  // point (AVX2, 4-vCPU x86-64 VM; ratios 46.6 and 48.2 in two runs). In
  // 2-D that puts the cut-over near n = 200; one cell measured faster up to
  // n = 256 and slower from n = 384 on the drunkard traces. The one-cell
  // path also skips the per-step re-binning and snapshot, which the
  // comparison leaves out, so the cut-over errs toward the grid. A torus
  // grid too coarse for wrap-distinct windows (cells < 2w+1) always lands
  // here: its window is every cell, so the gridded price exceeds n.
  const auto span = static_cast<double>(
      std::min(static_cast<std::size_t>(2 * near_window_ + 1), cells_per_axis_));
  const auto nodes = static_cast<double>(n_);
  const double rows = std::pow(span, static_cast<double>(D - 1));
  const double window_points =
      nodes * std::pow(span / static_cast<double>(cells_per_axis_), static_cast<double>(D));
  one_cell_ = kScanRunCost + nodes <= rows * kScanRunCost + window_points;
  if (one_cell_) cells_per_axis_ = 1;
  stats_.one_cell = one_cell_;
  cell_size_ = side_ / static_cast<double>(cells_per_axis_);
  MANET_ENSURE(cells_per_axis_ == 1 ||
               cell_size_ * near_window_ >= radius_ * (1.0 - 1e-12));
  MANET_ENSURE(!torus_ || one_cell_ ||
               cells_per_axis_ >= static_cast<std::size_t>(2 * near_window_ + 1));

  total_cells_ = 1;
  for (int i = 0; i < D; ++i) total_cells_ *= cells_per_axis_;
  // Reserve the budget cap up front: a radius shrink refines the cells, and
  // growing these on a warm advance() would break the zero-steady-state-
  // allocation discipline.
  std::size_t max_total_cells = 1;
  for (int i = 0; i < D; ++i) max_total_cells *= max_per_axis;
  cell_start_.reserve(max_total_cells + 1);
  cell_cursor_.reserve(max_total_cells);
  cell_of_.resize(n_);
  cell_start_.resize(total_cells_ + 1);
  cell_cursor_.resize(total_cells_);
  cell_ids_.resize(n_);
  // Scratch for the batched scans; sized once so warm advances stay
  // allocation-free even after a radius-growth rebuild mid-trace.
  snap_.reserve(n_);
  cur_.reserve(n_);
  hit_d2_.resize(n_);
  hit_index_.resize(n_);
  for (std::size_t p = 0; p < n_; ++p) cell_of_[p] = flat_index(cell_coords(points[p]));
}

template <int D>
void KineticEmstEngine<D>::build_cell_snapshot() {
  // Counting sort of cell_of_ into CSR form. Ids come out ascending within
  // each cell, but the order is immaterial: it only affects the order edges
  // are *collected* in, and every collected batch is sorted by the strict
  // (d2, u, v) key before use.
  std::fill(cell_start_.begin(), cell_start_.end(), 0u);
  for (std::size_t p = 0; p < n_; ++p) ++cell_start_[cell_of_[p] + 1];
  for (std::size_t c = 0; c < total_cells_; ++c) cell_start_[c + 1] += cell_start_[c];
  std::memcpy(cell_cursor_.data(), cell_start_.data(),
              total_cells_ * sizeof(std::uint32_t));
  for (std::size_t p = 0; p < n_; ++p) {
    cell_ids_[cell_cursor_[cell_of_[p]]++] = static_cast<std::uint32_t>(p);
  }
  // SoA coordinate snapshot matching cell_ids_: every cell (and every axis-0
  // row of cells) is a contiguous run per axis, ready for the batched
  // kernels. Gather from cur_, which advance_impl filled this step.
  snap_.assign_gather(cur_, std::span<const std::uint32_t>(cell_ids_.data(), n_));
}

template <int D>
template <bool Torus>
void KineticEmstEngine<D>::emit_mover_run(std::uint32_t i, const double* q,
                                          std::size_t run_begin, std::size_t run_end) {
  const std::size_t count = run_end - run_begin;
  if (count == 0) return;
  ++step_runs_;
  step_evals_ += count;
  kernels::AxisPointers<D> axes;
  const PointStore<D>& coords = one_cell_ ? cur_ : snap_;
  for (int a = 0; a < D; ++a) {
    axes[static_cast<std::size_t>(a)] = coords.axis(a) + run_begin;
  }
  const double* d2 = hit_d2_.data();
  const std::uint32_t* slot = hit_index_.data();
  std::size_t hits = 0;
  if constexpr (Torus) {
    hits = kernels::batch_torus_squared_distance_within<D>(axes, count, q, side_, r2_,
                                                           hit_index_.data(), hit_d2_.data());
  } else {
    hits = kernels::batch_squared_distance_within<D>(axes, count, q, r2_, hit_index_.data(),
                                                     hit_d2_.data());
  }
  // One cell: the run is all of cur_, in node order, so a slot is a node id.
  const std::uint32_t* ids = one_cell_ ? nullptr : cell_ids_.data() + run_begin;
  for (std::size_t h = 0; h < hits; ++h) {
    const std::uint32_t j = ids != nullptr ? ids[slot[h]] : slot[h];
    if (j == i) continue;
    // Both endpoints moved: emit once, from the smaller id (the larger-id
    // mover skips the pair).
    if (moved_flag_[j] != 0 && j < i) continue;
    changed_.push_back({d2[h], std::min(i, j), std::max(i, j)});
  }
}

template <int D>
template <bool Torus>
void KineticEmstEngine<D>::scan_mover(std::uint32_t i) {
  std::array<double, static_cast<std::size_t>(D)> q;
  for (int a = 0; a < D; ++a) q[static_cast<std::size_t>(a)] = cur_.axis(a)[i];
  if (one_cell_) {
    emit_mover_run<Torus>(i, q.data(), 0, n_);
    return;
  }

  const int w = near_window_;

  // Axis 0 is the least-significant digit of the flat cell index, so the
  // 2w+1 window cells of one axis-0 row are contiguous both in flat index
  // and (via cell_start_) in CSR slots: each row becomes one batched kernel
  // run instead of per-cell, per-pair scalar work. Higher axes step by the
  // usual odometer. A torus wrap splits a row into at most two runs
  // (2w+1 <= cells_per_axis here, so lo/hi cannot both overflow).
  const auto center = cell_coords(cur_.get(i));
  const auto cells = static_cast<long long>(cells_per_axis_);
  const auto row_base_of = [this](const std::array<std::size_t, D>& c) {
    std::size_t idx = 0;
    for (int a = D - 1; a >= 1; --a) idx = idx * cells_per_axis_ + c[static_cast<std::size_t>(a)];
    return idx * cells_per_axis_;
  };
  const auto scan_row = [this, i, &q, cells](std::size_t row_base, long long lo,
                                             long long hi) {
    if constexpr (Torus) {
      if (lo < 0) {
        emit_mover_run<Torus>(i, q.data(), cell_start_[row_base + static_cast<std::size_t>(lo + cells)],
                              cell_start_[row_base + static_cast<std::size_t>(cells)]);
        lo = 0;
      } else if (hi >= cells) {
        emit_mover_run<Torus>(i, q.data(), cell_start_[row_base],
                              cell_start_[row_base + static_cast<std::size_t>(hi - cells + 1)]);
        hi = cells - 1;
      }
    } else {
      lo = std::max<long long>(lo, 0);
      hi = std::min<long long>(hi, cells - 1);
    }
    emit_mover_run<Torus>(i, q.data(), cell_start_[row_base + static_cast<std::size_t>(lo)],
                          cell_start_[row_base + static_cast<std::size_t>(hi + 1)]);
  };

  const long long lo0 = static_cast<long long>(center[0]) - w;
  const long long hi0 = static_cast<long long>(center[0]) + w;
  if constexpr (D == 1) {
    scan_row(0, lo0, hi0);
    return;
  } else {
    // Odometer over axes 1..D-1 offsets in [-w, w].
    std::array<int, D> offset{};
    for (int a = 1; a < D; ++a) offset[static_cast<std::size_t>(a)] = -w;
    for (;;) {
      std::array<std::size_t, D> other{};
      bool in_grid = true;
      for (int a = 1; a < D; ++a) {
        auto shifted = static_cast<long long>(center[static_cast<std::size_t>(a)]) +
                       offset[static_cast<std::size_t>(a)];
        if constexpr (Torus) {
          if (shifted < 0) shifted += cells;
          if (shifted >= cells) shifted -= cells;
        } else {
          if (shifted < 0 || shifted >= cells) {
            in_grid = false;
            break;
          }
        }
        other[static_cast<std::size_t>(a)] = static_cast<std::size_t>(shifted);
      }
      if (in_grid) scan_row(row_base_of(other), lo0, hi0);
      int axis = 1;
      while (axis < D) {
        if (++offset[static_cast<std::size_t>(axis)] <= w) break;
        offset[static_cast<std::size_t>(axis)] = -w;
        ++axis;
      }
      if (axis == D) break;
    }
  }
}

template <int D>
bool KineticEmstEngine<D>::run_kruskal() {
  dsu_.reset(n_);
  mst_.clear();
  for (const CandidateEdge& c : edges_) {
    if (dsu_.unite(c.u, c.v)) {
      mst_.push_back({c.u, c.v, covering_radius(c.d2)});
      if (mst_.size() + 1 == n_) return true;
    }
  }
  return mst_.size() + 1 == n_;
}

template <int D>
template <bool Torus>
void KineticEmstEngine<D>::solve_dense(std::span<const Point<D>> points) {
  dense_emst<D, Torus>(points, side_, dense_, mst_);
  ++stats_.dense_steps;
  kinetic_metrics().dense_steps.increment();
  if (dense_mode_) return;
  pool_stale_ = true;
  // The stale pool is re-derived at radius_ on the next repaired step; keep
  // the radius at the snug margin of the latest bottleneck so that pool
  // most likely spans. Only growth happens here: maybe_shrink lowers it.
  const double snug = kShrinkTarget * (mst_.empty() ? 0.0 : mst_.back().weight);
  if (!(snug > radius_)) return;
  radius_ = snug;
  r2_ = snug * snug;
  stats_.radius = radius_;
  rebuild_kinetic_grid(points);
}

template <int D>
template <bool Torus>
void KineticEmstEngine<D>::full_rebuild(std::span<const Point<D>> points,
                                        double start_radius) {
  ++stats_.full_rebuilds;
  kinetic_metrics().rebuilds.increment();
  const double r_max = (Torus ? 0.5 : 1.0) * side_ * std::sqrt(static_cast<double>(D));
  MANET_EXPECTS(start_radius > 0.0);
  double radius = std::min(start_radius, r_max);
  const Box<D> box(side_);
  for (;;) {
    grid_.rebuild(points, box, radius);
    MANET_INVARIANT(radius <= grid_.max_query_radius());
    edges_.clear();
    const auto collect = [this](std::size_t i, std::size_t j, double d2) {
      edges_.push_back({d2, static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    };
    if constexpr (Torus) {
      grid_.for_each_torus_pair_within(radius, collect);
    } else {
      grid_.for_each_pair_within(radius, collect);
    }
    // merged_ is idle outside the step merge and already trades buffers
    // with edges_, so the pool-sized buffers never mix with the delta's.
    sort_candidate_edges(edges_, radius * radius, merged_);
    if (run_kruskal()) break;
    MANET_INVARIANT(radius < r_max);  // the complete graph always spans
    radius = std::min(radius * 2.0, r_max);
    ++stats_.radius_growths;
    kinetic_metrics().growths.increment();
  }

  // Retighten: a doubling overshoot (or an inflated caller radius) would
  // otherwise fix the candidate-set size — and with it the cost of every
  // subsequent filter/merge/Kruskal pass — until the next rebuild. The pool
  // is sorted by (d2, u, v), so the pairs within the snug radius are exactly
  // a prefix: truncation, no re-enumeration. The tree is unaffected because
  // every accepted edge has weight <= bottleneck <= the snug radius.
  const double bottleneck = mst_.empty() ? 0.0 : mst_.back().weight;
  if (bottleneck > 0.0) {
    const double snug = kShrinkTarget * bottleneck;
    if (snug < radius) {
      radius = snug;
      const auto first_outside = std::upper_bound(
          edges_.begin(), edges_.end(), radius * radius,
          [](double r2, const CandidateEdge& c) { return r2 < c.d2; });
      edges_.erase(first_outside, edges_.end());
    }
  }

  radius_ = radius;
  r2_ = radius * radius;
  pool_stale_ = false;
  rebuild_kinetic_grid(points);
  prev_.assign(points);
  shrink_streak_ = 0;
  stats_.radius = radius_;
  stats_.candidate_edges = edges_.size();
}

template <int D>
template <bool Torus>
void KineticEmstEngine<D>::maybe_shrink(std::span<const Point<D>> points) {
  // When the maintained radius sits above the bottleneck's snug margin for a
  // sustained stretch (after a growth spike, an initial radius sized for a
  // sparser configuration, or a drift-down of the bottleneck itself), the
  // candidate set is ~(R/b)^D times larger than needed. Shrinking needs no
  // rebuild: the pool is sorted by d2, so the snug pool is exactly a prefix
  // — truncate it and re-derive the cell geometry for the smaller radius,
  // O(n) in total. The patience hysteresis keeps bottleneck jitter from
  // alternating cheap shrinks with expensive growth rebuilds.
  const double bottleneck = mst_.empty() ? 0.0 : mst_.back().weight;
  const double snug = kShrinkTarget * bottleneck;
  if (bottleneck > 0.0 && radius_ > kShrinkTrigger * snug) {
    if (++shrink_streak_ >= kShrinkPatience) {
      ++stats_.radius_shrinks;
      kinetic_metrics().shrinks.increment();
      radius_ = snug;
      r2_ = snug * snug;
      const auto first_outside = std::upper_bound(
          edges_.begin(), edges_.end(), r2_,
          [](double r2, const CandidateEdge& c) { return r2 < c.d2; });
      edges_.resize(static_cast<std::size_t>(first_outside - edges_.begin()));
      stats_.candidate_edges = edges_.size();
      stats_.radius = radius_;
      rebuild_kinetic_grid(points);
      shrink_streak_ = 0;
    }
  } else {
    shrink_streak_ = 0;
  }
}

template <int D>
template <bool Torus>
std::span<const WeightedEdge> KineticEmstEngine<D>::start_impl(
    std::span<const Point<D>> points, double side) {
  MANET_EXPECTS(side > 0.0);
  if (points.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw ConfigError("KineticEmstEngine: more than 2^32 points are not supported");
  }
  kinetic_metrics().traces.increment();
  started_ = true;
  torus_ = Torus;
  side_ = side;
  n_ = points.size();
  stats_ = {};
  shrink_streak_ = 0;

  const double r0 = emst_initial_radius<D>(n_, side_);
  dense_mode_ = n_ < kDenseCutoff || r0 >= 0.5 * side_;
  stats_.dense_mode = dense_mode_;
  moved_.clear();
  moved_flag_.assign(n_, 0);
  if (dense_mode_) {
    // No grid work to repair: every step with a mover is one dense_emst
    // solve, the batch engine's own dense path, so the trees match it bit
    // for bit. prev_ is kept only for the move detection.
    kinetic_metrics().dense.increment();
    dense_emst<D, Torus>(points, side_, dense_, mst_);
    prev_.assign(points);
    return mst_;
  }

  full_rebuild<Torus>(points, r0);
  return mst_;
}

template <int D>
template <bool Torus>
std::span<const WeightedEdge> KineticEmstEngine<D>::advance_impl(
    std::span<const Point<D>> points) {
  ++stats_.steps;
  kinetic_metrics().steps.increment();

  // Pass 1: exact moved-node detection against the previous step. The AoS
  // input is gathered into the cur_ SoA store once; the vectorized
  // tuple-compare kernel then writes the per-node flags (1 iff any
  // coordinate differs — the same `!(Point == Point)` predicate), and a
  // scalar sweep collects the mover ids in ascending order.
  cur_.assign(points);
  kernels::batch_tuple_not_equal<D>(cur_.axes(), prev_.axes(), n_, moved_flag_.data());
  moved_.clear();
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (moved_flag_[i] != 0) moved_.push_back(i);
  }
  stats_.last_moved = moved_.size();
  stats_.last_superseded = 0;
  stats_.last_delta = 0;
  if (moved_.empty()) return mst_;  // nothing moved: the tree is still exact

  // The one-cell cut-over in movers. A one-cell repair with m movers makes
  // m kernel runs over all n nodes (priced m * (kScanRunCost + n), as in
  // rebuild_kinetic_grid), then sorts the delta and merges it into the pool;
  // dense_emst evaluates n(n-1)/2 pairs whatever m is. A least-squares fit
  // of per-step times on identical traces run both ways (drunkard, l = n^2,
  // p_pause 0.1..0.9 so m/n spans 0.08..0.82; n = 32..200 in 2-D, 64..1024
  // in 3-D; AVX2, 4-vCPU x86-64 VM) against kinetic.kernel_runs,
  // kinetic.distance_evals and the dense pair count gave ~1.6 ns per scanned
  // point and ~1.0 ns per dense pair in 2-D: kDensePairCost = 0.6. Left out
  // of the price, the merge's pass over the pool only makes the rule lean
  // toward the repair. Replayed on the paired steps, the rule's total time
  // is 1-9% above always picking the faster path, at every n of both
  // dimensions; "more than half the nodes moved" is 4-51% above it. In 2-D
  // at n = 128 the rule goes dense above 28 movers.
  const auto nodes = static_cast<double>(n_);
  const bool dense_is_cheaper =
      one_cell_ && static_cast<double>(moved_.size()) * (kScanRunCost + nodes) >
                       kDensePairCost * 0.5 * nodes * (nodes - 1.0);
  if (dense_mode_ || dense_is_cheaper) {
    // cur_ becomes the next step's move-detection baseline whatever happens
    // to the pool: an O(1) swap, as after a repair.
    swap(prev_, cur_);
    solve_dense<Torus>(points);
    if (!dense_mode_) maybe_shrink<Torus>(points);
    return mst_;
  }
  if (pool_stale_) {
    // Re-derive the stale pool: with every node flagged as a mover, pass 3
    // emits every in-radius pair once, and the merge has no pool entry left
    // to keep.
    edges_.clear();
    std::fill(moved_flag_.begin(), moved_flag_.end(), std::uint8_t{1});
    moved_.resize(n_);
    for (std::uint32_t i = 0; i < n_; ++i) moved_[i] = i;
    pool_stale_ = false;
    ++stats_.pool_rederives;
    kinetic_metrics().pool_rederives.increment();
  }

  // Pass 2: re-bin the nodes that crossed a cell boundary. (Harmless before
  // the mass-move decision below: a rebuild re-derives every bin anyway.)
  // One cell has no boundaries to cross.
  std::size_t crossings = 0;
  if (!one_cell_) {
    for (const std::uint32_t i : moved_) {
      const std::size_t new_cell = flat_index(cell_coords(points[i]));
      if (new_cell != cell_of_[i]) {
        cell_of_[i] = new_cell;
        ++crossings;
      }
    }
  }
  stats_.boundary_crossings += crossings;

  if (static_cast<double>(moved_.size()) >
          kMassMoveFraction * static_cast<double>(n_) &&
      static_cast<double>(crossings) >
          kMassMoveFraction * static_cast<double>(moved_.size())) {
    // Mostly-new configuration (teleport-scale moves: most nodes changed
    // cell, so the maintained radius is stale too). When a mass move is
    // sub-cell — every node drifting a little, as in a mobility model's
    // start-up transient — the repair below stays cheaper than a rebuild:
    // it re-derives the same pairs from bins that barely changed, with no
    // grid reconstruction and no radius search. (No flag reset needed: pass
    // 1 rewrites every moved_flag_ entry next step.)
    ++stats_.mass_move_rebuilds;
    kinetic_metrics().mass_moves.increment();
    full_rebuild<Torus>(points, radius_);
    maybe_shrink<Torus>(points);
    return mst_;
  }

  // Counting-sort the bins into the flat snapshot pass 3 scans (one cell
  // scans cur_ directly).
  if (!one_cell_) build_cell_snapshot();

  // Pass 3: re-derive every current mover-incident pair within the radius,
  // one distance evaluation each. The pool entries these supersede are not
  // touched here — the merge below already streams the whole pool, and the
  // mover flags it tests live in an L1-resident byte array — so this scan
  // needs no entering-vs-surviving distinction either (the repair invariant
  // would make that an arithmetic test on the previous-step distance, but
  // not making it at all is cheaper still). The cell neighborhood of a
  // mover covers its radius ball, so the emitted set is exactly the pairs
  // the pool must regain. Pairs of two moved nodes are emitted once, from
  // the smaller id.
  changed_.clear();
  step_runs_ = 0;
  step_evals_ = 0;
  for (const std::uint32_t i : moved_) scan_mover<Torus>(i);
  stats_.last_delta = changed_.size();
  stats_.delta_pairs += changed_.size();
  stats_.kernel_runs += step_runs_;
  stats_.distance_evals += step_evals_;
  KineticMetrics& counters = kinetic_metrics();
  counters.delta_pairs.add(changed_.size());
  counters.kernel_runs.add(step_runs_);
  counters.distance_evals.add(step_evals_);

  // Pass 4: sort the delta, then merge it with the surviving pool entries,
  // dropping everything mover-incident (the delta holds its replacements).
  // (d2, u, v) is a strict total order — (u, v) is unique per pair — so the
  // merged sequence equals the from-scratch sort bit for bit. Kruskal is
  // fused into the merge: every emitted candidate is offered to the forest
  // in order until the tree completes, which turns Kruskal's own full read
  // of the pool into reuse of values this loop already holds in registers.
  sort_candidate_edges(changed_, r2_, delta_scratch_);
  merged_.resize(edges_.size() + changed_.size());  // upper bound; trimmed below
  dsu_.reset(n_);
  mst_.clear();
  std::size_t missing = n_ - 1;
  const auto offer = [&](const CandidateEdge& c) {
    if (missing != 0 && dsu_.unite(c.u, c.v)) {
      mst_.push_back({c.u, c.v, covering_radius(c.d2)});
      --missing;
    }
  };
  std::size_t out = 0;
  std::size_t superseded = 0;
  const CandidateEdge* delta = changed_.data();
  const CandidateEdge* const delta_end = delta + changed_.size();
  for (const CandidateEdge& c : edges_) {
    if ((moved_flag_[c.u] | moved_flag_[c.v]) != 0) {
      ++superseded;
      continue;
    }
    while (delta != delta_end &&
           candidate_less(*delta, c)) {
      offer(*delta);
      merged_[out++] = *delta++;
    }
    offer(c);
    merged_[out++] = c;
  }
  while (delta != delta_end) {
    offer(*delta);
    merged_[out++] = *delta++;
  }
  merged_.resize(out);
  edges_.swap(merged_);
  stats_.last_superseded = superseded;
  stats_.candidate_edges = edges_.size();
  // Re-baseline: cur_ IS the current positions in SoA form, so the
  // prev-points update is an O(1) buffer swap (unmoved coordinates are equal
  // in both stores; cur_ is fully re-gathered next step). Flags need no
  // reset — pass 1 rewrites all of them.
  swap(prev_, cur_);

  // A non-spanning candidate graph violates the "radius covers the
  // bottleneck" assumption: the radius must grow. One cell solves the step
  // densely, which also sets the radius from the new bottleneck; a grid
  // rebuilds batch-style at a doubling radius.
  if (missing == 0) {
    ++stats_.incremental_repairs;
    kinetic_metrics().incremental.increment();
  } else {
    ++stats_.radius_growths;
    kinetic_metrics().growths.increment();
    if (one_cell_) {
      solve_dense<Torus>(points);
    } else {
      full_rebuild<Torus>(points, radius_ * 2.0);
    }
  }
  maybe_shrink<Torus>(points);
  return mst_;
}

template <int D>
std::span<const WeightedEdge> KineticEmstEngine<D>::start(std::span<const Point<D>> points,
                                                          const Box<D>& box) {
  return start_impl<false>(points, box.side());
}

template <int D>
std::span<const WeightedEdge> KineticEmstEngine<D>::start_torus(
    std::span<const Point<D>> points, double side) {
  return start_impl<true>(points, side);
}

template <int D>
std::span<const WeightedEdge> KineticEmstEngine<D>::advance(
    std::span<const Point<D>> points) {
  MANET_EXPECTS(started_);
  MANET_EXPECTS(points.size() == n_);
  return torus_ ? advance_impl<true>(points) : advance_impl<false>(points);
}

template class KineticEmstEngine<1>;
template class KineticEmstEngine<2>;
template class KineticEmstEngine<3>;

}  // namespace manet
