// Differential harness pinning the kinetic engine to the batch engine: on
// every step of every trajectory, KineticEmstEngine must produce the SAME
// tree as EmstEngine — same edges, same order, same weight bits — and
// therefore the same bottleneck, weight multiset, breakpoint curve and
// largest-component curve. The sweep covers D in {1,2,3}, waypoint and
// drunkard mobility, box and torus metrics, clustered / duplicate /
// boundary-straddling configurations, and the engine's fallback paths
// (radius growth, mass cell-crossing steps, hysteresis shrink). The PR 2/4
// golden MTRM checksums are re-pinned here through the forced kinetic path
// at 1 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "core/mtrm.hpp"
#include "geometry/box.hpp"
#include "geometry/point.hpp"
#include "graph/union_find.hpp"
#include "mobility/factory.hpp"
#include "sim/deployment.hpp"
#include "sim/mobile_trace.hpp"
#include "sim/trace_workspace.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/emst_grid.hpp"
#include "topology/emst_kinetic.hpp"
#include "topology/mst.hpp"

namespace manet {
namespace {

/// Restores the environment-driven engine selection on scope exit even when
/// an assertion fails mid-test.
struct KineticModeGuard {
  ~KineticModeGuard() { set_kinetic_mode(KineticMode::kFromEnvironment); }
};
struct ParallelismGuard {
  ~ParallelismGuard() { set_max_parallelism(0); }
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The strongest possible comparison: the kinetic tree must equal the batch
/// tree element-wise — endpoints AND weight bit patterns — because both run
/// filtered Kruskal under the same strict (d2, u, v) total order (dense
/// inputs are delegated to the identical batch code).
void expect_trees_identical(std::span<const WeightedEdge> batch,
                            std::span<const WeightedEdge> kinetic, std::size_t step) {
  ASSERT_EQ(batch.size(), kinetic.size()) << "step " << step;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].u, kinetic[i].u) << "step " << step << " edge " << i;
    EXPECT_EQ(batch[i].v, kinetic[i].v) << "step " << step << " edge " << i;
    EXPECT_TRUE(bits_equal(batch[i].weight, kinetic[i].weight))
        << "step " << step << " edge " << i << ": " << batch[i].weight
        << " != " << kinetic[i].weight;
  }
  if (!batch.empty()) {
    EXPECT_TRUE(bits_equal(tree_bottleneck(batch), tree_bottleneck(kinetic)));
  }
}

/// Breakpoint curves from both trees must agree bit-for-bit as well (the
/// quantity every MTRM statistic is derived from).
template <int D>
void expect_curves_identical(std::size_t n, std::span<const WeightedEdge> batch,
                             std::span<const WeightedEdge> kinetic, std::size_t step) {
  UnionFind dsu(0);
  std::vector<LargestComponentCurve::Breakpoint> scratch;
  const LargestComponentCurve batch_curve(n, batch, dsu, scratch);
  const LargestComponentCurve kinetic_curve(n, kinetic, dsu, scratch);
  const auto b = batch_curve.breakpoints();
  const auto k = kinetic_curve.breakpoints();
  ASSERT_EQ(b.size(), k.size()) << "step " << step;
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_TRUE(bits_equal(b[i].range, k[i].range)) << "step " << step;
    EXPECT_EQ(b[i].size, k[i].size) << "step " << step;
  }
}

/// Scan-grid regimes (KineticStats::one_cell) a trace passed through.
struct RegimeVisits {
  bool started_one_cell = false;  ///< regime chosen by start()
  bool one_cell = false;          ///< some step ran in the one-cell regime
  bool gridded = false;           ///< some step ran on a multi-cell grid
};

/// Drives one mobility trajectory from `positions` through both engines,
/// comparing every step. Returns the kinetic stats for fallback-path
/// assertions; `visits`, when given, records the scan regimes.
template <int D>
KineticStats run_differential_trace_from(std::vector<Point<D>> positions, double side,
                                         const MobilityConfig& mobility, bool torus,
                                         std::size_t steps, Rng& rng,
                                         RegimeVisits* visits = nullptr) {
  const Box<D> box(side);
  const std::size_t n = positions.size();
  const auto model = make_mobility_model<D>(mobility, box);
  model->initialize(positions, rng);

  EmstEngine<D> batch;
  KineticEmstEngine<D> kinetic;
  for (std::size_t s = 0; s < steps; ++s) {
    if (s > 0) model->step(positions, rng);
    const auto batch_tree = torus ? batch.torus(positions, side) : batch.euclidean(positions, box);
    const auto kinetic_tree = s == 0 ? (torus ? kinetic.start_torus(positions, side)
                                              : kinetic.start(positions, box))
                                     : kinetic.advance(positions);
    expect_trees_identical(batch_tree, kinetic_tree, s);
    expect_curves_identical<D>(n, batch_tree, kinetic_tree, s);
    if (visits != nullptr) {
      const bool one_cell = kinetic.stats().one_cell;
      if (s == 0) visits->started_one_cell = one_cell;
      (one_cell ? visits->one_cell : visits->gridded) = true;
    }
  }
  return kinetic.stats();
}

/// run_differential_trace_from over a uniform deployment of n nodes.
template <int D>
KineticStats run_differential_trace(std::size_t n, double side, const MobilityConfig& mobility,
                                    bool torus, std::size_t steps, std::uint64_t seed,
                                    RegimeVisits* visits = nullptr) {
  Rng rng(seed);
  auto positions = uniform_deployment(n, Box<D>(side), rng);
  return run_differential_trace_from<D>(std::move(positions), side, mobility, torus, steps, rng,
                                        visits);
}

/// A fast waypoint setup (relative to the paper's gentle defaults) so nodes
/// cross cell boundaries every few steps.
MobilityConfig fast_waypoint(double side) {
  MobilityConfig config;
  config.kind = MobilityKind::kRandomWaypoint;
  config.waypoint.v_min = 0.01 * side;
  config.waypoint.v_max = 0.08 * side;
  config.waypoint.pause_steps = 3;
  config.waypoint.p_stationary = 0.1;
  return config;
}

MobilityConfig fast_drunkard(double side) {
  MobilityConfig config;
  config.kind = MobilityKind::kDrunkard;
  config.drunkard.step_radius = 0.05 * side;
  config.drunkard.p_pause = 0.2;
  config.drunkard.p_stationary = 0.1;
  return config;
}

/// Sparse motion: most nodes permanently parked, the movers still fast. The
/// per-step moved fraction stays well under the engine's mass-move
/// threshold, so steps take the INCREMENTAL repair path — the configuration
/// for tests asserting incremental stats.
MobilityConfig sparse_waypoint(double side) {
  MobilityConfig config = fast_waypoint(side);
  config.waypoint.p_stationary = 0.75;
  return config;
}

MobilityConfig sparse_drunkard(double side) {
  MobilityConfig config = fast_drunkard(side);
  config.drunkard.p_stationary = 0.75;
  return config;
}

TEST(KineticDifferential, WaypointBoxMatchesBatch1D) {
  run_differential_trace<1>(128, 64.0, fast_waypoint(64.0), /*torus=*/false, 120, 11);
}

TEST(KineticDifferential, WaypointBoxMatchesBatch2D) {
  run_differential_trace<2>(200, 64.0, fast_waypoint(64.0), /*torus=*/false, 120, 12);
  // n = 200 scans as one cell: incremental repairs, but no cell boundary to
  // cross. The re-binning path is asserted at a size that keeps the grid.
  const auto one_cell =
      run_differential_trace<2>(200, 64.0, sparse_waypoint(64.0), /*torus=*/false, 120, 12);
  EXPECT_FALSE(one_cell.dense_mode);
  EXPECT_TRUE(one_cell.one_cell);
  EXPECT_GT(one_cell.incremental_repairs, 0u);
  EXPECT_EQ(one_cell.boundary_crossings, 0u);
  const auto gridded =
      run_differential_trace<2>(600, 64.0, sparse_waypoint(64.0), /*torus=*/false, 120, 12);
  EXPECT_FALSE(gridded.dense_mode);
  EXPECT_FALSE(gridded.one_cell);
  EXPECT_GT(gridded.incremental_repairs, 0u);
  EXPECT_GT(gridded.boundary_crossings, 0u);
}

TEST(KineticDifferential, WaypointBoxMatchesBatch3D) {
  run_differential_trace<3>(160, 32.0, fast_waypoint(32.0), /*torus=*/false, 80, 13);
}

TEST(KineticDifferential, DrunkardBoxMatchesBatch1D) {
  run_differential_trace<1>(96, 48.0, fast_drunkard(48.0), /*torus=*/false, 120, 21);
}

TEST(KineticDifferential, DrunkardBoxMatchesBatch2D) {
  run_differential_trace<2>(180, 64.0, fast_drunkard(64.0), /*torus=*/false, 120, 22);
}

TEST(KineticDifferential, DrunkardBoxMatchesBatch3D) {
  run_differential_trace<3>(140, 24.0, fast_drunkard(24.0), /*torus=*/false, 80, 23);
}

TEST(KineticDifferential, PaperMobilityDefaultsMatchBatch2D) {
  // The paper's own Section 4.2 parameters (gentle motion, long pauses):
  // many steps move nothing or almost nothing — the degenerate-delta path.
  run_differential_trace<2>(64, 256.0, MobilityConfig::paper_waypoint(256.0), false, 150, 31);
  run_differential_trace<2>(64, 256.0, MobilityConfig::paper_drunkard(256.0), false, 150, 32);
}

TEST(KineticDifferential, TorusMatchesBatch2D) {
  run_differential_trace<2>(200, 64.0, fast_drunkard(64.0), /*torus=*/true, 120, 41);
  const auto stats =
      run_differential_trace<2>(200, 64.0, sparse_drunkard(64.0), /*torus=*/true, 120, 41);
  EXPECT_GT(stats.incremental_repairs, 0u);
}

TEST(KineticDifferential, TorusMatchesBatch1DAnd3D) {
  run_differential_trace<1>(128, 64.0, fast_drunkard(64.0), /*torus=*/true, 100, 42);
  run_differential_trace<3>(160, 24.0, fast_waypoint(24.0), /*torus=*/true, 80, 43);
}

TEST(KineticDifferential, ClusteredDeploymentForcesRadiusGrowthAndMatches) {
  // Two tight clusters far apart: the connectivity-scale initial radius
  // cannot bridge the gap, so the start() build must double — and when the
  // clusters drift, the incremental path keeps operating at the grown
  // radius. Drive positions directly to control the geometry.
  const double side = 200.0;
  const Box2 box(side);
  Rng rng(51);
  std::vector<Point2> positions;
  for (std::size_t i = 0; i < 40; ++i) {
    positions.push_back({{rng.uniform(0.0, 12.0), rng.uniform(0.0, 12.0)}});
  }
  for (std::size_t i = 0; i < 40; ++i) {
    positions.push_back({{rng.uniform(188.0, 200.0), rng.uniform(188.0, 200.0)}});
  }

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  EXPECT_GT(kinetic.stats().radius_growths, 0u);

  for (std::size_t s = 1; s <= 40; ++s) {
    for (auto& p : positions) {
      p.coords[0] = std::clamp(p.coords[0] + rng.uniform(-1.0, 1.0), 0.0, side);
      if (rng.uniform(0.0, 1.0) < 0.5) continue;  // keep some nodes parked
      p.coords[1] = std::clamp(p.coords[1] + rng.uniform(-1.0, 1.0), 0.0, side);
    }
    expect_trees_identical(batch.euclidean(positions, box), kinetic.advance(positions), s);
  }
}

/// Starts 80 nodes connected at the initial radius, then pulls the two
/// halves apart, comparing every step with the batch engine. Each step moves
/// the nodes whose id is s mod `stride` (every node when stride is 1) by
/// `stride` * 4 away from the middle, so the gap widens at the same mean
/// rate whatever the churn. Returns the kinetic stats after `steps` steps
/// and, in `growths_at_start`, the radius growths start() took.
KineticStats run_stretching_gap_trace(std::size_t stride, std::size_t steps,
                                      std::size_t& growths_at_start) {
  const double side = 400.0;
  const Box2 box(side);
  Rng rng(52);
  std::vector<Point2> positions;
  for (std::size_t i = 0; i < 80; ++i) {
    positions.push_back({{rng.uniform(140.0, 260.0), rng.uniform(0.0, side)}});
  }

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  growths_at_start = kinetic.stats().radius_growths;

  for (std::size_t s = 1; s <= steps; ++s) {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (i % stride != s % stride) continue;
      auto& p = positions[i];
      const double drift = (p.coords[0] < 200.0 ? -4.0 : 4.0) * static_cast<double>(stride);
      p.coords[0] = std::clamp(p.coords[0] + drift, 0.0, side);
    }
    expect_trees_identical(batch.euclidean(positions, box), kinetic.advance(positions), s);
  }
  return kinetic.stats();
}

TEST(KineticDifferential, StretchingGapForcesIncrementalRadiusGrowthAndMatches) {
  // Start connected at the initial radius, then pull the two halves apart a
  // little each step: eventually no candidate edge bridges the gap. With
  // every node moving every step the one-cell engine solves those steps
  // densely (the high-churn path); with an eighth of the nodes moving per
  // step it repairs them, the repaired Kruskal stops spanning mid-trace, and
  // the engine must take the growth fallback — without changing any result.
  std::size_t growths_at_start = 0;
  const KineticStats all_move = run_stretching_gap_trace(1, 35, growths_at_start);
  EXPECT_TRUE(all_move.one_cell);
  EXPECT_EQ(all_move.dense_steps, 35u);

  const KineticStats low_churn = run_stretching_gap_trace(8, 35 * 8, growths_at_start);
  EXPECT_TRUE(low_churn.one_cell);
  EXPECT_GT(low_churn.incremental_repairs, 0u);
  EXPECT_GT(low_churn.radius_growths, growths_at_start)
      << "the separating halves never forced a mid-trace radius growth";
}

TEST(KineticDifferential, OutlierReturnTriggersHysteresisShrinkAndMatches) {
  // One far outlier inflates the spanning radius at start(); after it walks
  // back into the bulk, the maintained radius sits far above the bottleneck
  // and the hysteresis shrink must fire — with bit-identical results before,
  // during and after.
  const double side = 300.0;
  const Box2 box(side);
  Rng rng(53);
  std::vector<Point2> positions;
  for (std::size_t i = 0; i < 64; ++i) {
    positions.push_back({{rng.uniform(0.0, 60.0), rng.uniform(0.0, 60.0)}});
  }
  positions.push_back({{290.0, 290.0}});

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  EXPECT_GT(kinetic.stats().radius_growths, 0u);

  for (std::size_t s = 1; s <= 30; ++s) {
    auto& outlier = positions.back();
    outlier.coords[0] = std::max(30.0, outlier.coords[0] - 30.0);
    outlier.coords[1] = std::max(30.0, outlier.coords[1] - 30.0);
    // Jiggle a couple of bulk nodes so the steps are not no-ops.
    for (std::size_t j = 0; j < 4; ++j) {
      auto& p = positions[j];
      p.coords[0] = std::clamp(p.coords[0] + rng.uniform(-0.5, 0.5), 0.0, side);
    }
    expect_trees_identical(batch.euclidean(positions, box), kinetic.advance(positions), s);
  }
  EXPECT_GT(kinetic.stats().radius_shrinks, 0u)
      << "returning outlier never triggered the hysteresis shrink";
}

/// Fresh uniform positions every step for n nodes; returns the kinetic
/// stats after 25 such steps, every one compared with the batch engine.
KineticStats run_teleport_trace(std::size_t n) {
  const double side = 64.0;
  const Box2 box(side);
  Rng rng(54);
  auto positions = uniform_deployment(n, box, rng);

  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  for (std::size_t s = 1; s <= 25; ++s) {
    positions = uniform_deployment(n, box, rng);
    const auto b = batch.euclidean(positions, box);
    const auto k = kinetic.advance(positions);
    expect_trees_identical(b, k, s);
    expect_curves_identical<2>(n, b, k, s);
  }
  return kinetic.stats();
}

TEST(KineticDifferential, MassTeleportStepsFallBackAndMatch) {
  // Fresh uniform positions every step: every node moves (waypoint-arrival /
  // redeployment scale). On a grid that must take the mass-move rebuild
  // path; n = 120 scans as one cell, which has no boundaries to cross, so
  // there it is repaired incrementally instead — bit-identical either way.
  const KineticStats one_cell = run_teleport_trace(120);
  EXPECT_TRUE(one_cell.one_cell);
  EXPECT_EQ(one_cell.mass_move_rebuilds, 0u);
  const KineticStats gridded = run_teleport_trace(600);
  EXPECT_FALSE(gridded.one_cell);
  EXPECT_GT(gridded.mass_move_rebuilds, 20u);
}

TEST(KineticDifferential, DuplicateAndBoundaryStraddlingPointsMatch) {
  // Coincident nodes (zero-weight edges, maximal tie pressure on the
  // (d2, u, v) order) and nodes pinned to the region boundary, moving on and
  // off it — box and torus.
  const double side = 50.0;
  const Box2 box(side);
  Rng rng(55);
  std::vector<Point2> positions;
  for (std::size_t i = 0; i < 30; ++i) {
    const Point2 p{{rng.uniform(0.0, side), rng.uniform(0.0, side)}};
    positions.push_back(p);
    positions.push_back(p);  // exact duplicate
  }
  for (std::size_t i = 0; i < 20; ++i) {
    positions.push_back({{rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : side, rng.uniform(0.0, side)}});
  }

  for (const bool torus : {false, true}) {
    EmstEngine<2> batch;
    KineticEmstEngine<2> kinetic;
    auto pts = positions;
    const auto b0 = torus ? batch.torus(pts, side) : batch.euclidean(pts, box);
    const auto k0 = torus ? kinetic.start_torus(pts, side) : kinetic.start(pts, box);
    expect_trees_identical(b0, k0, 0);
    for (std::size_t s = 1; s <= 40; ++s) {
      for (std::size_t i = 0; i < pts.size(); i += 3) {
        // Snap to the boundary half the time, drift otherwise.
        pts[i].coords[0] = rng.uniform(0.0, 1.0) < 0.5
                               ? (rng.uniform(0.0, 1.0) < 0.5 ? 0.0 : side)
                               : std::clamp(pts[i].coords[0] + rng.uniform(-2.0, 2.0), 0.0, side);
      }
      const auto b = torus ? batch.torus(pts, side) : batch.euclidean(pts, box);
      const auto k = kinetic.advance(pts);
      expect_trees_identical(b, k, s);
      expect_curves_identical<2>(pts.size(), b, k, s);
    }
  }
}

// --- per-step dense solves ---------------------------------------------------
// In the one-cell regime a step with enough movers is solved by dense_emst
// and leaves the pool stale; the next repaired step re-derives it. A
// repaired step that stops spanning is solved densely too. The trace below
// cycles through all of these, comparing every step with the batch engine.

/// Cycles of: 3 steps moving every node a little (dense), 5 steps moving
/// a few nodes (repairs, the first re-deriving the pool), and one step that
/// sends one bulk node to the empty far corner of the region (a repaired
/// Kruskal that cannot span: growth). The outlier rejoins the bulk in the
/// next cycle. Nodes start in the lower 60% of every axis.
template <int D>
KineticStats run_churn_cycle_trace(bool torus, std::uint64_t seed) {
  const double side = 100.0;
  const Box<D> box(side);
  Rng rng(seed);
  auto positions = uniform_deployment(80, Box<D>(0.6 * side), rng);
  const auto jiggle = [&](Point<D>& p, double amount) {
    for (double& c : p.coords) c = std::clamp(c + rng.uniform(-amount, amount), 0.0, 0.6 * side);
  };

  EmstEngine<D> batch;
  KineticEmstEngine<D> kinetic;
  const auto solve_batch = [&] {
    return torus ? batch.torus(positions, side) : batch.euclidean(positions, box);
  };
  expect_trees_identical(solve_batch(),
                         torus ? kinetic.start_torus(positions, side) : kinetic.start(positions, box),
                         0);
  EXPECT_TRUE(kinetic.stats().one_cell);
  std::size_t step = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (int s = 0; s < 9; ++s) {
      if (s < 3) {
        for (auto& p : positions) jiggle(p, 1.0);
      } else if (s < 8) {
        for (int j = 0; j < 3; ++j) jiggle(positions[rng.uniform_index(positions.size())], 1.0);
      } else {
        positions[static_cast<std::size_t>(cycle)].coords.fill(0.97 * side);
      }
      if (s == 0 && cycle > 0) jiggle(positions[static_cast<std::size_t>(cycle - 1)], 0.0);
      const auto b = solve_batch();
      const auto k = kinetic.advance(positions);
      expect_trees_identical(b, k, ++step);
      expect_curves_identical<D>(positions.size(), b, k, step);
    }
  }
  return kinetic.stats();
}

template <int D>
void check_churn_cycles() {
  for (const bool torus : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "D=" << D << " torus=" << torus);
    const KineticStats stats = run_churn_cycle_trace<D>(torus, 90 + D);
    EXPECT_TRUE(stats.one_cell);
    EXPECT_GE(stats.dense_steps, 18u) << "every node moving should solve densely";
    EXPECT_GT(stats.pool_rederives, 0u) << "no repair re-derived a stale pool";
    EXPECT_GT(stats.incremental_repairs, stats.pool_rederives);
    EXPECT_GT(stats.radius_growths, 0u) << "the far-corner outlier never forced a growth";
    EXPECT_EQ(stats.full_rebuilds, 1u) << "one-cell growth must not rebuild batch-style";
  }
}

TEST(KineticDifferential, ChurnCyclesMixDenseStepsAndRederivedRepairs2D) {
  check_churn_cycles<2>();
}

TEST(KineticDifferential, ChurnCyclesMixDenseStepsAndRederivedRepairs3D) {
  check_churn_cycles<3>();
}

TEST(KineticDifferential, DenseModeStepWithoutMoversReturnsTheSameTree) {
  // n below the dense cutoff: every step is a dense solve, except one where
  // no node moved, which must hand back the previous tree unchanged.
  const double side = 50.0;
  const Box2 box(side);
  Rng rng(77);
  auto positions = uniform_deployment(KineticEmstEngine<2>::kDenseCutoff - 2, box, rng);
  EmstEngine<2> batch;
  KineticEmstEngine<2> kinetic;
  expect_trees_identical(batch.euclidean(positions, box), kinetic.start(positions, box), 0);
  ASSERT_TRUE(kinetic.stats().dense_mode);
  for (auto& p : positions) p.coords[0] = std::clamp(p.coords[0] + 0.5, 0.0, side);
  const auto moved = kinetic.advance(positions);
  expect_trees_identical(batch.euclidean(positions, box), moved, 1);
  const std::vector<WeightedEdge> before(moved.begin(), moved.end());
  EXPECT_EQ(kinetic.stats().dense_steps, 1u);

  const auto still = kinetic.advance(positions);
  EXPECT_EQ(kinetic.stats().last_moved, 0u);
  EXPECT_EQ(kinetic.stats().dense_steps, 1u) << "a step without movers was solved again";
  expect_trees_identical(before, still, 2);
  expect_trees_identical(batch.euclidean(positions, box), still, 2);
}

TEST(KineticDifferential, RandomizedConfigSweep) {
  // Randomized fuzz over the whole configuration space: dimension, node
  // count (straddling the dense cutoff), region size, model, metric.
  Rng meta(0xD1FFull);
  for (int round = 0; round < 24; ++round) {
    const int d = 1 + static_cast<int>(meta.next_u64() % 3);
    const std::size_t n = 24 + meta.next_u64() % 200;
    const double side = 16.0 + meta.uniform(0.0, 80.0);
    const bool torus = (meta.next_u64() & 1) != 0;
    const bool waypoint = (meta.next_u64() & 1) != 0;
    const std::size_t steps = 25 + meta.next_u64() % 30;
    const std::uint64_t seed = meta.next_u64();
    const MobilityConfig mobility = waypoint ? fast_waypoint(side) : fast_drunkard(side);
    SCOPED_TRACE(::testing::Message() << "round=" << round << " d=" << d << " n=" << n
                                      << " side=" << side << " torus=" << torus
                                      << " waypoint=" << waypoint);
    if (d == 1) {
      run_differential_trace<1>(n, side, mobility, torus, steps, seed);
    } else if (d == 2) {
      run_differential_trace<2>(n, side, mobility, torus, steps, seed);
    } else {
      run_differential_trace<3>(n, side, mobility, torus, steps, seed);
    }
  }
}

// --- the one-cell cut-over ---------------------------------------------------
// rebuild_kinetic_grid switches between a multi-cell scan grid and one cell
// by a cost model. In 2-D and 3-D the switch moves with n: the traces below
// start just below it (one cell) and just above it (grid). In 1-D a mover's
// window is a single run either way, so only a radius near a third of the
// side — a gap the tree must bridge — selects one cell; the 1-D traces
// start just on either side of that gap and then close it.

/// Smallest n (a multiple of 8 above 40) whose uniform deployment from
/// `seed` makes start() pick the gridded scan. The n - 8 just below it
/// starts in the one-cell regime by construction.
template <int D>
std::size_t first_gridded_n(double side, bool torus, std::uint64_t seed) {
  const Box<D> box(side);
  const auto starts_gridded = [&](std::size_t n) {
    Rng rng(seed);
    const auto positions = uniform_deployment(n, box, rng);
    KineticEmstEngine<D> kinetic;
    if (torus) {
      kinetic.start_torus(positions, side);
    } else {
      kinetic.start(positions, box);
    }
    return !kinetic.stats().one_cell;
  };
  std::size_t lo = 40;  // one cell (checked below)
  if (starts_gridded(lo)) return 0;
  std::size_t hi = lo;
  while (!starts_gridded(hi)) {
    lo = hi;
    hi += 128;
    if (hi > 4096) return 0;
  }
  for (std::size_t n = lo + 8; n < hi; n += 8) {
    if (starts_gridded(n)) return n;
  }
  return hi;
}

template <int D>
void check_cut_over_in_n(bool torus, bool waypoint, std::uint64_t seed) {
  const double side = 64.0;
  const std::size_t above = first_gridded_n<D>(side, torus, seed);
  ASSERT_GT(above, 40u) << "no one-cell/grid cut-over found in n";
  const MobilityConfig mobility = waypoint ? fast_waypoint(side) : fast_drunkard(side);
  for (const std::size_t n : {above - 8, above}) {
    SCOPED_TRACE(::testing::Message() << "D=" << D << " n=" << n << " torus=" << torus
                                      << " waypoint=" << waypoint);
    RegimeVisits visits;
    run_differential_trace<D>(n, side, mobility, torus, 40, seed, &visits);
    EXPECT_EQ(visits.started_one_cell, n < above);
  }
}

TEST(KineticDifferential, OneCellCutOverInNMatchesBatch2D) {
  for (const bool torus : {false, true}) {
    for (const bool waypoint : {false, true}) check_cut_over_in_n<2>(torus, waypoint, 81);
  }
}

TEST(KineticDifferential, OneCellCutOverInNMatchesBatch3D) {
  for (const bool torus : {false, true}) {
    for (const bool waypoint : {false, true}) check_cut_over_in_n<3>(torus, waypoint, 82);
  }
}

TEST(KineticDifferential, OneCellCutOverInGapMatchesBatch1D) {
  // Two clusters of 24 nodes, 8 wide, with a gap g between them (and a
  // wider wrap-around gap on the torus): the tree must bridge g, so the
  // maintained radius is ~1.05 g. One cell wins once that radius passes
  // side/3 (at most five ~radius/2 cells fit); g = 29 starts on the grid,
  // g = 32 as one cell. Mobility then fills the gap, the radius shrinks and
  // the g = 32 traces cross the cut-over mid-way.
  const double side = 96.0;
  for (const bool torus : {false, true}) {
    for (const bool waypoint : {false, true}) {
      for (const double gap : {29.0, 32.0}) {
        SCOPED_TRACE(::testing::Message() << "gap=" << gap << " torus=" << torus
                                          << " waypoint=" << waypoint);
        Rng rng(83);
        std::vector<Point1> positions;
        for (std::size_t i = 0; i < 24; ++i) positions.push_back({{rng.uniform(0.0, 8.0)}});
        for (std::size_t i = 0; i < 24; ++i) {
          positions.push_back({{rng.uniform(8.0 + gap, 16.0 + gap)}});
        }
        const MobilityConfig mobility = waypoint ? fast_waypoint(side) : fast_drunkard(side);
        RegimeVisits visits;
        run_differential_trace_from<1>(positions, side, mobility, torus, 60, rng, &visits);
        EXPECT_EQ(visits.started_one_cell, gap > 30.0);
        if (gap > 30.0) {
          EXPECT_TRUE(visits.gridded) << "the trace never crossed the cut-over";
        }
      }
    }
  }
}

TEST(KineticDifferential, RunMobileTraceEngineSelectionIsBitIdentical) {
  // The run_mobile_trace seam itself: explicit batch vs explicit kinetic on
  // the same seed must produce bit-identical traces.
  const Box2 box(96.0);
  const auto config = fast_waypoint(96.0);
  const auto run = [&](TraceEngine engine) {
    Rng rng(61);
    const auto model = make_mobility_model<2>(config, box);
    TraceWorkspace<2> ws;
    const auto trace = run_mobile_trace<2>(128, box, 60, *model, rng, &ws, engine);
    const auto timeline = trace.critical_radius_timeline();
    return std::vector<double>(timeline.begin(), timeline.end());
  };
  const auto batch_timeline = run(TraceEngine::kBatch);
  const auto kinetic_timeline = run(TraceEngine::kKinetic);
  ASSERT_EQ(batch_timeline.size(), kinetic_timeline.size());
  for (std::size_t i = 0; i < batch_timeline.size(); ++i) {
    EXPECT_TRUE(bits_equal(batch_timeline[i], kinetic_timeline[i])) << "step " << i;
  }
}

std::vector<double> flatten_all(const std::vector<MtrmResult>& results) {
  std::vector<double> values;
  for (const MtrmResult& result : results) {
    const auto flat = flatten_mtrm_result(result);
    values.insert(values.end(), flat.begin(), flat.end());
  }
  return values;
}

TEST(KineticDifferential, MtrmSweepIsBitIdenticalAcrossEngines) {
  const KineticModeGuard guard;
  const std::vector<MtrmConfig> configs = {
      experiments::waypoint_experiment(256.0, Preset::kQuick),
      experiments::drunkard_experiment(256.0, Preset::kQuick)};

  set_kinetic_mode(KineticMode::kForceOff);
  const auto batch_flat = flatten_all(experiments::solve_mtrm_sweep(configs, 20020623));
  set_kinetic_mode(KineticMode::kForceOn);
  const auto kinetic_flat = flatten_all(experiments::solve_mtrm_sweep(configs, 20020623));

  ASSERT_EQ(batch_flat.size(), kinetic_flat.size());
  EXPECT_EQ(0, std::memcmp(batch_flat.data(), kinetic_flat.data(),
                           batch_flat.size() * sizeof(double)));
}

std::uint64_t mtrm_checksum(const MtrmConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  return fnv1a_bits(flatten_mtrm_result(solve_mtrm<2>(config, rng)));
}

// The PR 2/4 golden digests (tests/determinism_test.cpp), re-pinned through
// the FORCED kinetic path at 1 and 8 threads. If these move while the
// determinism_test copies hold, the kinetic engine has broken bit-identity.
TEST(KineticDifferential, GoldenChecksumsHoldThroughKineticPathAtOneAndEightThreads) {
  const KineticModeGuard mode_guard;
  const ParallelismGuard parallelism_guard;
  set_kinetic_mode(KineticMode::kForceOn);

  const MtrmConfig waypoint = experiments::waypoint_experiment(256.0, Preset::kQuick);
  const MtrmConfig drunkard = experiments::drunkard_experiment(256.0, Preset::kQuick);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    set_max_parallelism(threads);
    EXPECT_EQ(hex_u64(mtrm_checksum(waypoint, 20020623)), hex_u64(0x7f15b5b64209b3a3ull))
        << "threads=" << threads;
    EXPECT_EQ(hex_u64(mtrm_checksum(drunkard, 20020623)), hex_u64(0xca0fd93f2a6598c4ull))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace manet
