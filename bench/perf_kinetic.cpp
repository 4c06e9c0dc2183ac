// Kinetic vs batch EMST over a mobile trace (the whole-trace analogue of
// perf_mst's single-solve comparison): random-waypoint trajectories in a
// 2-D l = 1024 region, plus the paper's own Figure 2/3 points (waypoint and
// drunkard at n = 32, 64, 128 in l = n^2, where the kinetic engine scans as
// one cell), each solved step by step twice — once re-solving from scratch
// every step (EmstEngine) and once incrementally repairing
// (KineticEmstEngine) — with identical seeds, so both engines see the exact
// same positions at every step.
//
// The kinetic engine's contract is that it changes NOTHING but the running
// time, so the bench folds every step's MST weight sequence of each engine
// into an FNV-1a digest and exits nonzero when the digests differ — a
// speedup that moves a single bit of the simulation output is a bug, not a
// speedup. It also counts heap allocations over the second half of the
// kinetic trace (global operator new replacement): a warm incremental
// advance() makes 0 (tests/alloc_discipline_test.cpp pins that), and so do
// its dense solves and pool re-derivations. A rebuild, or a re-derivation
// at a grown radius, can still grow a pooled buffer past its earlier
// high-water mark a few times in the second half.
//
// The paper rows report how many steps the one-cell engine solved densely
// (dense_steps: most drunkard steps, few waypoint steps) and how often a
// repair re-derived the pool a dense step left stale (pool_rederives).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "geometry/box.hpp"
#include "mobility/factory.hpp"
#include "sim/deployment.hpp"
#include "support/bench_json.hpp"
#include "support/hash.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "topology/emst_grid.hpp"
#include "topology/emst_kinetic.hpp"
#include "topology/mst.hpp"

namespace {

// Single-threaded bench: a plain counter is enough.
std::size_t g_news = 0;
bool g_counting = false;

void* counted_alloc(std::size_t size) {
  if (g_counting) ++g_news;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) { return counted_alloc(size); }
void* operator new[](std::size_t size, std::align_val_t) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace manet;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Folds a tree's weight sequence (Kruskal acceptance order — deterministic)
/// into a running FNV-1a digest.
std::uint64_t fold_tree(std::span<const WeightedEdge> tree, std::uint64_t hash) {
  for (const auto& edge : tree) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &edge.weight, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= kFnv1aPrime;
    }
  }
  return hash;
}

struct TraceConfig {
  std::size_t n;
  std::size_t steps;
  double side;
  bool drunkard;  ///< paper drunkard instead of paper waypoint
};

struct EngineRun {
  double seconds = 0.0;           ///< time inside the engine calls only
  std::uint64_t digest = kFnv1aOffset;
  std::size_t steady_allocs = 0;  ///< heap allocations over the 2nd half
};

/// Replays the identical trajectory (same seed, model re-created) through
/// one engine. `Solve(positions, first_step)` returns the step's tree.
template <typename Solve>
EngineRun run_trace(const TraceConfig& config, const Box2& box, std::uint64_t seed,
                    Solve&& solve) {
  const MobilityConfig mobility = config.drunkard ? MobilityConfig::paper_drunkard(box.side())
                                                  : MobilityConfig::paper_waypoint(box.side());
  Rng rng(seed);
  auto positions = uniform_deployment(config.n, box, rng);
  const auto model = make_mobility_model<2>(mobility, box);
  model->initialize(positions, rng);

  EngineRun run;
  const std::size_t half = config.steps / 2;
  for (std::size_t s = 0; s < config.steps; ++s) {
    if (s > 0) model->step(positions, rng);
    if (s == half) {
      g_news = 0;
      g_counting = true;
    }
    const double start = now_seconds();
    const auto tree = solve(positions, s == 0);
    run.seconds += now_seconds() - start;
    run.digest = fold_tree(tree, run.digest);
  }
  g_counting = false;
  run.steady_allocs = g_news;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool with_metrics = false;
  std::uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--metrics") {
      with_metrics = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else {
      std::printf("usage: %s [--quick] [--metrics] [--seed S]\n", argv[0]);
      return arg == "--help" ? 0 : 1;
    }
  }

  const double side = 1024.0;  // the large-n rows' 2-D region
  // The acceptance point is {4096, 10000}: a full paper-scale trace at a
  // node count where the batch re-solve clearly dominates the step cost.
  // {65536, 131072} extend the sweep into the Wang-et-al. critical-
  // connectivity scaling regime (n >= 10^5) that the SoA + SIMD kernel layer
  // (geometry/distance_kernels.hpp) targets; fewer steps keep the batch
  // reference affordable there. The paper rows (l = n^2, both figure
  // models) run in the kinetic engine's one-cell scan regime.
  std::vector<TraceConfig> sweep;
  for (const std::size_t n : {std::size_t{32}, std::size_t{64}, std::size_t{128}}) {
    for (const bool drunkard : {false, true}) {
      const std::size_t steps = quick ? 1000 : 10000;
      sweep.push_back({n, steps, static_cast<double>(n * n), drunkard});
    }
  }
  if (quick) {
    sweep.push_back({1024, 300, side, false});
  } else {
    for (const auto& [n, steps] : std::vector<std::pair<std::size_t, std::size_t>>{
             {1024, 3000}, {4096, 10000}, {16384, 1200}, {32768, 400}, {65536, 200},
             {131072, 100}}) {
      sweep.push_back({n, steps, side, false});
    }
  }

  bool identical = true;

  BenchReport report("emst_kinetic_vs_batch");
  report.add_param("d", JsonValue::number(std::size_t{2}));
  report.add_param("seed", JsonValue::string(hex_u64(seed)));
  report.add_param("mobility",
                   JsonValue::string("per sample: paper random waypoint (v_max = 0.01*l, "
                                     "t_pause = 2000) or paper drunkard (m = 0.01*l)"));
  report.add_param("batch", JsonValue::string("EmstEngine (full re-solve per step)"));
  report.add_param("kinetic",
                   JsonValue::string("KineticEmstEngine (incremental repair, dense solves at "
                                     "high churn, batch fallback)"));

  for (const TraceConfig& config : sweep) {
    const Box2 box(config.side);
    EmstEngine<2> batch_engine;
    const EngineRun batch = run_trace(
        config, box, seed, [&batch_engine, &box](std::span<const Point2> positions, bool) {
          return batch_engine.euclidean(positions, box);
        });

    KineticEmstEngine<2> kinetic_engine;
    const EngineRun kinetic = run_trace(
        config, box, seed,
        [&kinetic_engine, &box](std::span<const Point2> positions, bool first_step) {
          return first_step ? kinetic_engine.start(positions, box)
                            : kinetic_engine.advance(positions);
        });

    if (batch.digest != kinetic.digest) identical = false;
    const KineticStats& stats = kinetic_engine.stats();

    JsonValue sample = JsonValue::object();
    sample.set("n", JsonValue::number(config.n));
    sample.set("l", JsonValue::number(config.side));
    sample.set("mobility", JsonValue::string(config.drunkard ? "drunkard" : "waypoint"));
    sample.set("steps", JsonValue::number(config.steps));
    sample.set("batch_seconds", JsonValue::number(batch.seconds));
    sample.set("kinetic_seconds", JsonValue::number(kinetic.seconds));
    sample.set("speedup", JsonValue::number(batch.seconds / kinetic.seconds));
    sample.set("trace_digest", JsonValue::string(hex_u64(kinetic.digest)));
    sample.set("incremental_repairs", JsonValue::number(stats.incremental_repairs));
    sample.set("full_rebuilds", JsonValue::number(stats.full_rebuilds));
    sample.set("mass_move_rebuilds", JsonValue::number(stats.mass_move_rebuilds));
    sample.set("radius_growths", JsonValue::number(stats.radius_growths));
    sample.set("radius_shrinks", JsonValue::number(stats.radius_shrinks));
    sample.set("boundary_crossings", JsonValue::number(stats.boundary_crossings));
    sample.set("one_cell", JsonValue::boolean(stats.one_cell));
    sample.set("kernel_runs", JsonValue::number(stats.kernel_runs));
    sample.set("distance_evals", JsonValue::number(stats.distance_evals));
    sample.set("delta_pairs", JsonValue::number(stats.delta_pairs));
    sample.set("dense_steps", JsonValue::number(stats.dense_steps));
    sample.set("pool_rederives", JsonValue::number(stats.pool_rederives));
    sample.set("steady_state_allocs_second_half", JsonValue::number(kinetic.steady_allocs));
    report.add_sample(std::move(sample));
  }

  report.add_extra("traces_bit_identical", JsonValue::boolean(identical));
  report.add_param("manet_metrics", JsonValue::boolean(metrics::compiled_in()));
  if (with_metrics) report.add_extra("metrics", metrics::collect_json());
  std::printf("%s\n", report.dump().c_str());

  if (!identical) {
    std::fprintf(stderr, "FATAL: kinetic EMST trace diverged from the batch path\n");
    return 1;
  }
  return 0;
}
