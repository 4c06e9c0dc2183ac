// Dense-Prim vs grid-engine EMST benchmark (the mobile hot path's inner
// solve): an n sweep at the paper's l = 1024 region, reported as JSON.
//
// Because the whole point of the grid engine is that it changes NOTHING but
// the running time, the bench re-verifies on every measured point set that
// both paths produce the same tree edge for edge — endpoints, order and
// weight bits: both return the unique minimum spanning tree under the
// strict (d2, u, v) order — and exits nonzero on any mismatch. A speedup
// that moves the simulation output is a bug, not a speedup.
//
// The bench also counts heap allocations (global operator new replacement)
// during a warm engine solve, reporting the steady-state allocations per
// mobility-step-equivalent solve; the zero-allocation workspace contract
// (sim/trace_workspace.hpp) shows up here as 0.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "geometry/box.hpp"
#include "sim/deployment.hpp"
#include "support/bench_json.hpp"
#include "support/hash.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "topology/emst_grid.hpp"
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

bool bitwise_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_tree(std::span<const WeightedEdge> a, std::span<const WeightedEdge> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].v != b[i].v || !bitwise_equal(a[i].weight, b[i].weight)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool with_metrics = false;
  std::uint64_t seed = 1;
  int sets = 3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--metrics") {
      with_metrics = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--sets" && i + 1 < argc) {
      sets = std::stoi(argv[++i]);
    } else {
      std::printf("usage: %s [--quick] [--metrics] [--seed S] [--sets K]\n", argv[0]);
      return arg == "--help" ? 0 : 1;
    }
  }

  const double side = 1024.0;  // the paper's 2-D region
  const Box2 box(side);
  std::vector<std::size_t> n_sweep = {256, 1024, 2048, 4096};
  if (quick) n_sweep = {256, 1024};

  Rng rng(seed);
  bool identical = true;

  // Everything below emits through the shared bench/figure JSON schema
  // (support/bench_json.hpp) so results/BENCH_mst.json diffs uniformly
  // against every other perf artifact.
  BenchReport report("emst_grid_vs_dense");
  report.add_param("d", JsonValue::number(std::size_t{2}));
  report.add_param("l", JsonValue::number(side));
  report.add_param("seed", JsonValue::string(hex_u64(seed)));
  report.add_param("point_sets", JsonValue::number(static_cast<std::size_t>(sets)));
  report.add_param("dense", JsonValue::string("dense_emst (SIMD Prim, O(n^2))"));
  report.add_param("grid", JsonValue::string("EmstEngine (filtered Kruskal, adaptive radius)"));

  for (std::size_t idx = 0; idx < n_sweep.size(); ++idx) {
    const std::size_t n = n_sweep[idx];
    // One engine per n, warmed on the first set: the steady-state timing is
    // what the mobile step loop sees.
    EmstEngine<2> engine;
    DenseEmstWorkspace<2> dense_workspace;
    std::vector<WeightedEdge> dense;
    double dense_seconds = 0.0;
    double grid_seconds = 0.0;
    std::size_t rounds = 0;
    std::size_t candidate_edges = 0;
    std::size_t steady_allocs = 0;
    // More grid repetitions per measurement: a grid solve is ~100x shorter
    // than a dense solve, so it needs more iterations for a stable clock.
    const int grid_reps = 10;

    for (int set = 0; set < sets; ++set) {
      const auto points = uniform_deployment(n, box, rng);

      const double dense_start = now_seconds();
      dense_emst<2, false>(points, side, dense_workspace, dense);
      dense_seconds += now_seconds() - dense_start;

      engine.euclidean(points, box);  // warm the pools for this point set
      g_news = 0;
      g_counting = true;
      const double grid_start = now_seconds();
      for (int rep = 0; rep < grid_reps; ++rep) engine.euclidean(points, box);
      grid_seconds += (now_seconds() - grid_start) / grid_reps;
      g_counting = false;
      steady_allocs = g_news / static_cast<std::size_t>(grid_reps);

      const auto grid = engine.euclidean(points, box);
      rounds = engine.stats().rounds;
      candidate_edges = engine.stats().candidate_edges;

      if (!same_tree(dense, grid)) identical = false;
    }

    dense_seconds /= sets;
    grid_seconds /= sets;
    JsonValue sample = JsonValue::object();
    sample.set("n", JsonValue::number(n));
    sample.set("dense_seconds", JsonValue::number(dense_seconds));
    sample.set("grid_seconds", JsonValue::number(grid_seconds));
    sample.set("speedup", JsonValue::number(dense_seconds / grid_seconds));
    sample.set("doubling_rounds", JsonValue::number(rounds));
    sample.set("candidate_edges", JsonValue::number(candidate_edges));
    sample.set("steady_state_allocs_per_solve", JsonValue::number(steady_allocs));
    report.add_sample(std::move(sample));
  }

  report.add_extra("trees_identical", JsonValue::boolean(identical));
  report.add_param("manet_metrics", JsonValue::boolean(metrics::compiled_in()));
  if (with_metrics) report.add_extra("metrics", metrics::collect_json());
  std::printf("%s\n", report.dump().c_str());

  if (!identical) {
    std::fprintf(stderr, "FATAL: grid EMST diverged from the dense path\n");
    return 1;
  }
  return 0;
}
