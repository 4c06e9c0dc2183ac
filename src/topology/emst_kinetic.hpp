#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/cell_grid.hpp"
#include "geometry/point.hpp"
#include "geometry/point_store.hpp"
#include "geometry/torus.hpp"
#include "topology/emst_grid.hpp"
#include "topology/mst.hpp"

namespace manet {

/// Cumulative per-trace diagnostics of the kinetic engine, exposed for
/// bench/perf_kinetic.cpp and the kinetic test layer. Reset by start().
struct KineticStats {
  std::size_t steps = 0;               ///< advance() calls since start()
  std::size_t incremental_repairs = 0; ///< steps served by the delta path
  std::size_t full_rebuilds = 0;       ///< batch-style rebuilds (incl. start)
  std::size_t radius_growths = 0;      ///< rebuilds forced by a non-spanning candidate graph
  std::size_t radius_shrinks = 0;      ///< hysteresis-triggered radius reductions
  std::size_t mass_move_rebuilds = 0;  ///< rebuilds because most nodes moved at once
  std::size_t boundary_crossings = 0;  ///< cell-grid relinks of moved points
  std::size_t kernel_runs = 0;         ///< fused distance-kernel runs of the mover scans
  std::size_t distance_evals = 0;      ///< points those runs evaluated
  std::size_t delta_pairs = 0;         ///< mover-incident pairs re-derived, summed over steps
  std::size_t dense_steps = 0;         ///< advance() trees solved by dense Prim (dense_emst)
  std::size_t pool_rederives = 0;      ///< repairs that re-derived a stale pool from every node
  std::size_t last_moved = 0;          ///< nodes that moved in the latest step
  std::size_t last_superseded = 0;     ///< mover-incident pool entries dropped in the latest step
  std::size_t last_delta = 0;          ///< mover-incident pairs re-derived by the latest cell scan
  std::size_t candidate_edges = 0;     ///< current candidate-set size
  double radius = 0.0;                 ///< maintained candidate radius
  bool dense_mode = false;             ///< every step is a dense_emst solve (no pool)
  bool one_cell = false;               ///< the scan grid is one cell (current regime)
};

/// Selects which engine run_mobile_trace drives (sim/mobile_trace.hpp).
/// kAuto defers to the process-wide kinetic_enabled() switch; the explicit
/// values exist so the differential tests can force either path regardless
/// of the environment.
enum class TraceEngine { kAuto, kBatch, kKinetic };

/// Overrides for kinetic_enabled(); kFromEnvironment (the default) re-reads
/// the MANET_KINETIC decision.
enum class KineticMode { kFromEnvironment, kForceOn, kForceOff };

/// True when mobile traces should run the kinetic engine. Defaults to ON;
/// the MANET_KINETIC environment variable (read once: "0"/"off"/"false"
/// disables) and set_kinetic_mode override it. Because the kinetic engine is
/// bit-identical to the batch engine, this switch can never change a result
/// — only how fast it is computed.
bool kinetic_enabled() noexcept;

/// Programmatic override for tests and benches. Call it from a single thread
/// while no traces are running (the switch is engine *selection*, consulted
/// once per trace).
void set_kinetic_mode(KineticMode mode) noexcept;

/// Kinetic (incremental) Euclidean/torus MST engine for mobile traces: the
/// temporal-coherence counterpart of the batch EmstEngine. A mobility step
/// moves each node by at most m (drunkard) or v_max*dt (waypoint), so
/// between consecutive steps almost all cell-grid bins and almost all
/// candidate edges are unchanged; the engine repairs both instead of
/// rebuilding them.
///
/// Per advance() the engine
///   1. detects moved nodes by exact coordinate comparison with the previous
///      step,
///   2. re-bins the nodes that crossed a cell boundary (an O(1) cell-index
///      update per crossing) and counting-sorts the bins into a flat
///      start/ids snapshot — O(n + cells), a few microseconds, and the
///      neighborhood scans below then run over contiguous memory instead of
///      chasing per-node links. When the scan grid is a single cell (small
///      n, where a mover's window would cover most nodes anyway) there is
///      nothing to re-bin or snapshot and this pass is skipped,
///   3. repairs the candidate-edge set under the REPAIR INVARIANT — the set
///      holds exactly the pairs within the maintained radius R, in (d2, u, v)
///      order: edges with two unmoved endpoints keep their distance and
///      their relative order; every edge touching a moved node is dropped,
///      and the cell neighborhood of each moved node (which covers its
///      radius ball) is scanned once, through the fused in-radius kernel, to
///      re-derive all its current in-radius pairs — with no
///      entering-vs-surviving distinction to test, and
///   4. sorts that delta with the shared size-adaptive radix
///      (sort_candidate_edges) and re-runs filtered Kruskal fused into the
///      merge of the delta with the surviving pool — no full-pool sort.
///
/// Fallbacks rebuild batch-style (full enumeration + sort at a doubling
/// radius) whenever the invariant cannot be repaired cheaply: the candidate
/// graph stops spanning (the radius must grow), most nodes crossed cell
/// boundaries at once (teleports, fresh deployments; a one-cell grid has no
/// boundaries and repairs those steps instead), or the radius is far above
/// the current bottleneck for long enough (hysteresis shrink).
///
/// Dense solves. In the one-cell regime a repair scans all n nodes once
/// per mover, so when the movers' scans would cost more than a dense solve
/// (kDensePairCost) the step is solved from scratch by dense Prim
/// (dense_emst) instead, and the pool is marked stale; the next repaired step re-derives it by treating
/// every node as a mover. A one-cell repair that stops spanning is solved
/// densely too, instead of by a doubling rebuild. After a dense solve the
/// radius is raised to kShrinkTarget times the tree's bottleneck when that
/// is larger, so the re-derived pool spans. Dense regimes (n < kDenseCutoff,
/// or an initial radius a large fraction of the region) solve every step
/// that moved a node by dense Prim and keep no pool at all.
///
/// BIT-IDENTITY: filtered Kruskal under the strict total order (d2, u, v)
/// accepts a *unique* spanning tree, and any candidate set that contains all
/// pairs within a spanning radius yields that same tree (every full-MST edge
/// weighs at most the bottleneck <= R). Both engines compute distances with
/// the identical squared_distance / torus_squared_distance + covering_radius
/// arithmetic, so the kinetic tree — edges, order, and weight bits — equals
/// the batch tree on every step, and everything derived from it (bottleneck,
/// weight multiset, breakpoint curves, MTRM checksums) is bit-identical.
/// dense_emst returns that same tree, so a dense step changes nothing either.
/// tests/kinetic_differential_test.cpp pins this, including the PR 2/4
/// golden FNV-1a checksums through the kinetic path.
///
/// Allocation discipline: all buffers are pooled; after warm-up an advance()
/// performs ZERO steady-state heap allocations (tests/alloc_discipline_test
/// pins 0, one stricter than the batch path's rebuild-reuse). Not
/// thread-safe; one engine per concurrent trace (sim/trace_workspace.hpp).
template <int D>
class KineticEmstEngine {
 public:
  /// Same dense cutoff as the batch engine, so both select the dense path on
  /// exactly the same inputs.
  static constexpr std::size_t kDenseCutoff = EmstEngine<D>::kDenseCutoff;

  KineticEmstEngine() = default;
  KineticEmstEngine(const KineticEmstEngine&) = delete;
  KineticEmstEngine& operator=(const KineticEmstEngine&) = delete;

  /// Begins a Euclidean-metric trace: full build over `points` (all inside
  /// `box`). Returns the n-1 MST edges sorted ascending by weight (empty for
  /// n <= 1), valid until the next call on this engine.
  std::span<const WeightedEdge> start(std::span<const Point<D>> points, const Box<D>& box);

  /// Begins a trace under the flat-torus metric on [0, side]^D.
  std::span<const WeightedEdge> start_torus(std::span<const Point<D>> points, double side);

  /// Advances the current trace one mobility step: `points` are the same
  /// nodes at their new positions (same size, same region). Same return
  /// contract as start(). Requires a preceding start()/start_torus().
  std::span<const WeightedEdge> advance(std::span<const Point<D>> points);

  const KineticStats& stats() const noexcept { return stats_; }

 private:
  /// Mass-move rebuild threshold, applied twice: more than this fraction of
  /// nodes moved AND more than this fraction of the movers changed cell.
  /// Both at once mean teleport-scale displacement (the maintained radius
  /// is stale and the bins are mostly wrong); a sub-cell mass move — every
  /// node drifting a little — repairs cheaper than it rebuilds.
  static constexpr double kMassMoveFraction = 0.5;
  /// Hysteresis shrink: truncate the pool to kShrinkTarget * bottleneck
  /// (a sorted-prefix cut, no rebuild) after kShrinkPatience consecutive
  /// steps with radius > kShrinkTrigger * that snug radius. The target
  /// margin sizes the steady-state candidate set (~target^D times the
  /// spanning minimum), so every O(E) repair pass scales with it; the snug
  /// 1.05 measures substantially faster than looser margins and still
  /// absorbs the bottleneck's typical step-to-step drift — a step where the
  /// bottleneck outruns the margin is caught by Kruskal failing to span and
  /// only costs that one batch-style rebuild. The trigger tolerates modest
  /// overshoot (shrinking on every bottleneck wiggle would invite growth
  /// rebuilds right back); the patience filters transient dips.
  static constexpr double kShrinkTrigger = 1.1;
  static constexpr double kShrinkTarget = 1.05;
  static constexpr std::size_t kShrinkPatience = 4;
  /// One-cell cut-over of the scan grid: the fixed cost of one fused
  /// kernel run (call, window-row lookup, hit-loop set-up) in units of the
  /// kernel's per-point cost. rebuild_kinetic_grid prices a mover's gridded
  /// scan as rows * kScanRunCost + window points and the one-cell scan as
  /// kScanRunCost + n, and bins every node into one cell when the latter is
  /// no dearer. See the derivation at its use.
  static constexpr double kScanRunCost = 46.0;
  /// One-cell per-step dense choice: the cost of one dense_emst pair
  /// evaluation in units of a scan kernel's per-point cost. A step whose
  /// movers' scans cost more than the dense solve's n(n-1)/2 pairs —
  /// m * (kScanRunCost + n) > kDensePairCost * n(n-1)/2 — is solved by
  /// dense_emst instead of repaired. See the derivation at its use.
  static constexpr double kDensePairCost = 0.6;

  template <bool Torus>
  std::span<const WeightedEdge> start_impl(std::span<const Point<D>> points, double side);
  template <bool Torus>
  std::span<const WeightedEdge> advance_impl(std::span<const Point<D>> points);
  /// Batch-style rebuild: enumerate + sort + Kruskal at a doubling radius
  /// starting from `start_radius`, then rebuild the kinetic cell grid and
  /// re-baseline the prev_ position store.
  template <bool Torus>
  void full_rebuild(std::span<const Point<D>> points, double start_radius);
  /// Kruskal over the (sorted) candidate set; true when the tree spans.
  bool run_kruskal();
  /// Solves the current step by dense_emst. Outside the dense regimes the
  /// pool goes stale and the radius rises to kShrinkTarget * bottleneck
  /// when that is larger.
  template <bool Torus>
  void solve_dense(std::span<const Point<D>> points);
  /// Applies the post-step radius hysteresis; may trigger a shrink rebuild.
  template <bool Torus>
  void maybe_shrink(std::span<const Point<D>> points);

  // -- cell binning over the *current* positions ---------------------------
  void rebuild_kinetic_grid(std::span<const Point<D>> points);
  std::array<std::size_t, D> cell_coords(const Point<D>& p) const noexcept;
  std::size_t flat_index(const std::array<std::size_t, D>& c) const noexcept;
  /// Counting-sorts cell_of_ into the flat cell_start_/cell_ids_ snapshot
  /// consumed by scan_mover, and gathers the matching SoA coordinate
  /// snapshot (snap_) in CSR slot order. O(n + cells) per step; skipped in
  /// the one-cell regime.
  void build_cell_snapshot();
  /// Re-derives every current in-radius pair of mover i and appends it to
  /// changed_. In the one-cell regime that is ONE fused kernel run over all
  /// nodes, straight from cur_. Otherwise the (2w+1)^D cell neighborhood of
  /// i's (current-position) cell, where w = near_window_ satisfies
  /// w * cell_size_ >= radius_, is a superset of i's radius ball. Axis 0 is
  /// the least-significant digit of the flat cell index, so each axis-0 row
  /// of the window is ONE contiguous CSR slot run (two after a torus wrap
  /// split), scanned by one fused kernel run over the snap_ SoA snapshot.
  /// Cells are sized ~radius/2 (w = 2) when the region allows, which
  /// over-scans ~(2.5/3)^D less area than radius-sized cells.
  template <bool Torus>
  void scan_mover(std::uint32_t i);
  /// One fused distance + in-radius kernel run over the slot run
  /// [run_begin, run_end): candidate i (coordinates `q`) against
  /// snap_/cell_ids_, or against cur_ directly (ids = identity) in the
  /// one-cell regime. Only the hits reach the scalar emit loop.
  template <bool Torus>
  void emit_mover_run(std::uint32_t i, const double* q, std::size_t run_begin,
                      std::size_t run_end);

  // Trace configuration.
  bool started_ = false;
  bool torus_ = false;
  bool dense_mode_ = false;
  /// edges_ no longer holds the in-radius pairs of prev_ (a dense solve
  /// replaced the repair); the next repair re-derives it from every node.
  bool pool_stale_ = false;
  double side_ = 0.0;
  std::size_t n_ = 0;

  // Maintained candidate radius (repair invariant, unless pool_stale_:
  // edges_ holds exactly the pairs with d2 <= r2_ at the prev_ positions,
  // sorted by (d2, u, v)).
  double radius_ = 0.0;
  double r2_ = 0.0;
  std::size_t shrink_streak_ = 0;

  // Cell binning (geometry mirrors CellGrid's clamping). cell_of_ is the
  // maintained state — pass 2 updates it in O(1) per boundary crossing —
  // and cell_start_/cell_ids_ are its per-step counting-sort snapshot
  // (CSR layout: ids of cell c live at [cell_start_[c], cell_start_[c+1])).
  double cell_size_ = 0.0;
  std::size_t cells_per_axis_ = 0;
  std::size_t total_cells_ = 0;
  int near_window_ = 1;  ///< neighbor-cell half-window; near_window_ * cell_size_ >= radius_
  bool one_cell_ = false;  ///< all nodes share one cell: every scan is one run over cur_
  std::vector<std::size_t> cell_of_;
  std::vector<std::uint32_t> cell_start_;
  std::vector<std::uint32_t> cell_cursor_;
  std::vector<std::uint32_t> cell_ids_;

  CellGrid<D> grid_;               ///< full-rebuild enumeration only
  DenseEmstWorkspace<D> dense_;    ///< dense_emst scratch

  // SoA position state (geometry/point_store.hpp). cur_ is the current
  // step's gather; prev_ holds the positions the pool and bins were derived
  // at (the repair-invariant baseline) and is refreshed by an O(1) swap with
  // cur_ — unmoved coordinates are equal in both, movers were just
  // re-derived. snap_ mirrors cell_ids_ in CSR slot order so scan_mover's
  // batched kernels stream contiguous memory.
  PointStore<D> cur_;
  PointStore<D> prev_;
  PointStore<D> snap_;
  std::vector<double> hit_d2_;            ///< fused-kernel hit d2 output, sized n
  std::vector<std::uint32_t> hit_index_;  ///< fused-kernel hit slot output, sized n
  // Work of the current step's scans, added to stats_ and the metrics once
  // per advance().
  std::size_t step_runs_ = 0;
  std::size_t step_evals_ = 0;

  std::vector<CandidateEdge> edges_;         ///< the invariant candidate set
  std::vector<CandidateEdge> changed_;       ///< recomputed + entering edges, sorted per step
  std::vector<CandidateEdge> merged_;         ///< merge target and rebuild-sort scratch
  std::vector<CandidateEdge> delta_scratch_;  ///< delta-sort scratch, trades with changed_
  std::vector<std::uint32_t> moved_;
  std::vector<std::uint8_t> moved_flag_;

  /// Union-by-size forest with path halving, specialized for the per-step
  /// Kruskal loop: 32-bit ids keep both arrays L1-sized (graph/union_find.hpp
  /// stores size_t), and the component-count bookkeeping Kruskal never reads
  /// is omitted. Acceptance decisions depend only on connectivity, so the
  /// resulting tree is identical to one built over any other union-find.
  struct KruskalForest {
    std::vector<std::uint32_t> parent;
    std::vector<std::uint32_t> size;

    void reset(std::size_t n) {
      parent.resize(n);
      size.assign(n, 1);
      for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<std::uint32_t>(i);
    }
    std::uint32_t find(std::uint32_t x) noexcept {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];  // path halving
        x = parent[x];
      }
      return x;
    }
    bool unite(std::uint32_t a, std::uint32_t b) noexcept {
      a = find(a);
      b = find(b);
      if (a == b) return false;
      if (size[a] < size[b]) std::swap(a, b);
      parent[b] = a;
      size[a] += size[b];
      return true;
    }
  };
  KruskalForest dsu_;
  std::vector<WeightedEdge> mst_;
  KineticStats stats_;
};

}  // namespace manet
