// The three benchmark workloads. Each has an untraced run() that calls only
// top-level entry points (solve_mtrm, estimate_mtr,
// sample_stationary_critical_ranges, CampaignRunner, manetd over its socket)
// and a traced replay that calls the layer entry points those use, with a
// span around each call, and must reproduce run()'s results bit for bit.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <thread>

#include "bench.hpp"
#include "campaign/campaign.hpp"
#include "campaign/manifest.hpp"
#include "campaign/result_store.hpp"
#include "core/experiments.hpp"
#include "core/mtr.hpp"
#include "core/mtrm.hpp"
#include "mobility/factory.hpp"
#include "service/query.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "sim/deployment.hpp"
#include "sim/mobile_trace.hpp"
#include "sim/stationary_sample.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topology/critical_range.hpp"
#include "topology/emst_kinetic.hpp"

namespace perfbench {

namespace {

using manet::Box2;
using manet::MtrmConfig;
using manet::MtrmIterationOutcome;
using manet::MtrmResult;
using manet::Point2;
using manet::Rng;
using manet::WeightedEdge;

/// Fixed seed of every canary: its digest is pinned in golden.json, so each
/// run checks the build against known-good output whatever --seed it got.
constexpr std::uint64_t kCanarySeed = 20021;

/// Gated counters. pool.batches and pool.tasks_executed follow from the
/// batch and chunk structure, fixed for a given thread count; pool.steals
/// depends on timing and is only reported.
const std::vector<std::string> kGatedPrefixes = {"kinetic.", "emst.", "campaign.", "manetd.",
                                                 "pool.batches", "pool.tasks_executed"};
const std::vector<std::string> kPoolPrefixes = {"pool.steals"};

/// Records a failed check that stands for `count` failed operations.
void fail(Repetition& rep, std::size_t count, std::string message) {
  rep.failed += count;
  rep.failures.push_back(std::move(message));
}

std::string hex_bits(std::span<const double> values) {
  return manet::hex_u64(manet::fnv1a_bits(values));
}

std::string result_digest(const MtrmResult& result) {
  return hex_bits(manet::flatten_mtrm_result(result));
}

/// Folds a tree's weight sequence into a running FNV-1a digest (the
/// per-step trace digest of bench/perf_kinetic).
std::uint64_t fold_tree(std::span<const WeightedEdge> tree, std::uint64_t hash) {
  for (const auto& edge : tree) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &edge.weight, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= manet::kFnv1aPrime;
    }
  }
  return hash;
}

/// Counter snapshots around a repetition.
struct CounterWindow {
  Counters gated_before = read_counters(kGatedPrefixes);
  Counters pool_before = read_counters(kPoolPrefixes);

  void close(Repetition& rep) const {
    rep.counters = counter_delta(gated_before, read_counters(kGatedPrefixes));
    rep.pool_counters = counter_delta(pool_before, read_counters(kPoolPrefixes));
  }
};

/// Kinetic-engine and curve totals of the traced traces.
struct TraceTotals {
  std::uint64_t steps = 0;  ///< KineticStats::steps (advance calls)
  std::uint64_t incremental_repairs = 0;
  std::uint64_t full_rebuilds = 0;
  std::uint64_t radius_growths = 0;
  std::uint64_t radius_shrinks = 0;
  std::uint64_t mass_move_rebuilds = 0;
  std::uint64_t boundary_crossings = 0;
  std::uint64_t movers = 0;
  std::uint64_t delta = 0;
  std::uint64_t max_candidates = 0;
  std::uint64_t curves = 0;
  std::uint64_t breakpoints = 0;

  void merge(const TraceTotals& o) {
    steps += o.steps;
    incremental_repairs += o.incremental_repairs;
    full_rebuilds += o.full_rebuilds;
    radius_growths += o.radius_growths;
    radius_shrinks += o.radius_shrinks;
    mass_move_rebuilds += o.mass_move_rebuilds;
    boundary_crossings += o.boundary_crossings;
    movers += o.movers;
    delta += o.delta;
    max_candidates = std::max(max_candidates, o.max_candidates);
    curves += o.curves;
    breakpoints += o.breakpoints;
  }

  void add_to(Counters& counters) const {
    counters["trace.kinetic_steps"] += steps;
    counters["trace.incremental_repairs"] += incremental_repairs;
    counters["trace.full_rebuilds"] += full_rebuilds;
    counters["trace.radius_growths"] += radius_growths;
    counters["trace.radius_shrinks"] += radius_shrinks;
    counters["trace.mass_move_rebuilds"] += mass_move_rebuilds;
    counters["trace.boundary_crossings"] += boundary_crossings;
    counters["trace.movers"] += movers;
    counters["trace.delta_pairs"] += delta;
    counters["trace.steps_solved"] += curves;
    counters["trace.breakpoints_retained"] += breakpoints;
  }
};

struct IterationOptions {
  bool trial = true;         ///< the iteration is a parallel-engine trial body
  bool digest_trees = false;  ///< fold every step's tree into a digest
  bool keep_final = false;    ///< keep the last step for the one-shot check
};

/// One replayed MTRM iteration: what run_mtrm_iteration computes, with its
/// spans, engine totals and optional per-step tree digest.
struct TracedIteration {
  MtrmIterationOutcome outcome;
  TraceTotals totals;
  SpanLog log;
  std::uint64_t tree_digest = manet::kFnv1aOffset;
  std::vector<Point2> final_positions;
  double final_bottleneck = 0.0;
};

/// Replays run_mtrm_iteration<2> through its layers: deployment, mobility
/// initialise/step, KineticEmstEngine start/advance, the
/// LargestComponentCurve and MobileConnectivityTrace constructors and the
/// trace queries — the calls run_mobile_trace makes on its kinetic path.
TracedIteration traced_iteration(const MtrmConfig& config, Rng& rng,
                                 const IterationOptions& options) {
  TracedIteration out;
  SpanLog& log = out.log;
  {
    const SpanLog::Scope iteration(log, "core.iteration", options.trial);
    const Box2 region(config.side);
    const auto model = manet::make_mobility_model<2>(config.mobility, region);
    std::vector<Point2> positions;
    {
      const SpanLog::Scope span(log, "mobility.deploy");
      manet::uniform_deployment(config.node_count, region, rng, positions);
    }
    {
      const SpanLog::Scope span(log, "mobility.initialize");
      model->initialize(positions, rng);
    }

    manet::KineticEmstEngine<2> engine;
    manet::UnionFind dsu{0};
    std::vector<manet::LargestComponentCurve::Breakpoint> scratch;
    std::vector<manet::CurveMergeEvent> events;
    std::vector<manet::LargestComponentCurve> curves;
    curves.reserve(config.steps);
    LayerCalls step_calls;
    LayerCalls advance_calls;
    LayerCalls curve_calls;

    std::span<const WeightedEdge> edges;
    {
      const SpanLog::Scope span(log, "topology.kinetic.start");
      edges = engine.start(positions, region);
    }
    std::int64_t t0 = now_ns();
    curves.emplace_back(positions.size(), edges, dsu, scratch);
    curve_calls.add(now_ns() - t0);
    if (options.digest_trees) out.tree_digest = fold_tree(edges, out.tree_digest);

    for (std::size_t s = 1; s < config.steps; ++s) {
      t0 = now_ns();
      model->step(positions, rng);
      const std::int64_t t1 = now_ns();
      edges = engine.advance(positions);
      const std::int64_t t2 = now_ns();
      curves.emplace_back(positions.size(), edges, dsu, scratch);
      const std::int64_t t3 = now_ns();
      step_calls.add(t1 - t0);
      advance_calls.add(t2 - t1);
      curve_calls.add(t3 - t2);
      const manet::KineticStats& stats = engine.stats();
      out.totals.movers += stats.last_moved;
      out.totals.delta += stats.last_delta;
      out.totals.max_candidates =
          std::max<std::uint64_t>(out.totals.max_candidates, stats.candidate_edges);
      if (options.digest_trees) out.tree_digest = fold_tree(edges, out.tree_digest);
    }
    log.attach("mobility.step", std::move(step_calls));
    log.attach("topology.kinetic.advance", std::move(advance_calls));
    log.attach("sim.curve", std::move(curve_calls));

    const manet::KineticStats& stats = engine.stats();
    out.totals.steps = stats.steps;
    out.totals.incremental_repairs = stats.incremental_repairs;
    out.totals.full_rebuilds = stats.full_rebuilds;
    out.totals.radius_growths = stats.radius_growths;
    out.totals.radius_shrinks = stats.radius_shrinks;
    out.totals.mass_move_rebuilds = stats.mass_move_rebuilds;
    out.totals.boundary_crossings = stats.boundary_crossings;
    out.totals.curves = curves.size();
    for (const auto& curve : curves) out.totals.breakpoints += curve.breakpoints().size();
    if (options.keep_final) {
      out.final_positions = positions;
      out.final_bottleneck = curves.back().critical_range();
    }

    std::optional<manet::MobileConnectivityTrace> trace;
    {
      const SpanLog::Scope span(log, "sim.trace_build");
      trace.emplace(config.node_count, std::move(curves), events);
    }
    const SpanLog::Scope span(log, "sim.trace_query");
    MtrmIterationOutcome& outcome = out.outcome;
    for (const double f : config.time_fractions) {
      const double r_f = trace->range_for_time_fraction(f);
      outcome.range_for_time.push_back(r_f);
      outcome.lcc_at_range_for_time.push_back(trace->mean_largest_fraction_when_disconnected(r_f));
      outcome.min_lcc_at_range_for_time.push_back(trace->min_largest_fraction_at(r_f));
    }
    const double r0 = trace->largest_never_connected_range();
    outcome.range_never_connected = r0;
    outcome.lcc_at_range_never = trace->mean_largest_fraction_when_disconnected(r0);
    for (const double phi : config.component_fractions) {
      outcome.range_for_component.push_back(trace->range_for_mean_component_fraction(phi));
    }
    outcome.mean_critical_range = trace->mean_critical_range();
  }
  return out;
}

/// Replay of solve_mtrm<2>: one draw for the trial root, the iterations on
/// the parallel engine, the ordered fold.
MtrmResult traced_solve_mtrm(const MtrmConfig& config, Rng& rng, SpanLog& log,
                             TraceTotals& totals, const IterationOptions& options,
                             std::vector<TracedIteration>* keep = nullptr) {
  const SpanLog::Scope solve(log, "core.solve_mtrm");
  config.validate();
  const std::uint64_t trial_root = rng.next_u64();
  auto traced = manet::parallel_for_trials(
      config.iterations, trial_root,
      [&config, &options](std::size_t, Rng& iteration_rng) {
        return traced_iteration(config, iteration_rng, options);
      });
  std::vector<MtrmIterationOutcome> outcomes;
  outcomes.reserve(traced.size());
  for (TracedIteration& iteration : traced) {
    log.adopt(std::move(iteration.log));
    totals.merge(iteration.totals);
    outcomes.push_back(iteration.outcome);
  }
  if (keep != nullptr) {
    for (TracedIteration& iteration : traced) keep->push_back(std::move(iteration));
  }
  const SpanLog::Scope fold(log, "core.fold");
  return manet::fold_mtrm_outcomes(config, outcomes);
}

struct StationaryTrial {
  double radius = 0.0;
  SpanLog log;
};

/// Replay of sample_stationary_critical_ranges<2>: one draw for the trial
/// root, then per trial a fresh deployment and a one-shot EMST solve.
manet::StationaryRangeSample traced_stationary_sample(std::size_t n, const Box2& box,
                                                      std::size_t trials, Rng& rng,
                                                      SpanLog& log) {
  const std::uint64_t trial_root = rng.next_u64();
  auto traced = manet::parallel_for_trials(
      trials, trial_root, [n, &box](std::size_t, Rng& trial_rng) {
        StationaryTrial trial;
        {
          // Scopes close before the return moves the log out.
          const SpanLog::Scope span(trial.log, "sim.stationary_trial", /*trial=*/true);
          std::vector<Point2> points;
          {
            const SpanLog::Scope deploy(trial.log, "mobility.deploy");
            points = manet::uniform_deployment(n, box, trial_rng);
          }
          const SpanLog::Scope solve(trial.log, "topology.emst.solve");
          trial.radius = manet::critical_range<2>(points, box);
        }
        return trial;
      });
  std::vector<double> radii;
  radii.reserve(traced.size());
  for (StationaryTrial& trial : traced) {
    log.adopt(std::move(trial.log));
    radii.push_back(trial.radius);
  }
  return manet::StationaryRangeSample(std::move(radii));
}

/// Replay of estimate_mtr<2>(...).range.
double traced_estimate_mtr(std::size_t n, const Box2& box, const manet::MtrOptions& options,
                           Rng& rng, SpanLog& log) {
  const SpanLog::Scope span(log, "core.rs_estimate");
  options.validate();
  const auto sample = traced_stationary_sample(n, box, options.trials, rng, log);
  return sample.range_for_probability(options.target_probability);
}

/// Sum of span durations (seconds) and per-span seconds for one name.
struct NamedSpans {
  double total_s = 0.0;
  std::vector<double> each_s;
  double busy_s = 0.0;  ///< aggregates: summed call time
};

std::map<std::string, NamedSpans> group_records(const std::vector<SpanRecord>& records) {
  std::map<std::string, NamedSpans> groups;
  for (const SpanRecord& r : records) {
    NamedSpans& g = groups[r.name];
    if (r.aggregate) {
      g.busy_s += static_cast<double>(r.busy_ns) * 1e-9;
    } else {
      const double s = seconds_between(r.start_ns, r.end_ns);
      g.total_s += s;
      g.each_s.push_back(s);
    }
  }
  return groups;
}

/// Trial-body occupancy of the traced repetition rooted at record 0: busy
/// ratio = sum of trial time / (threads x wall); tail = per top-level phase,
/// the time from the last moment every runner was busy to the phase's last
/// trial end (the whole trial span of the phase when it never saturated).
void parallel_occupancy(const std::vector<SpanRecord>& records, std::size_t threads,
                        LayerMetrics& m) {
  const double wall = seconds_between(records[0].start_ns, records[0].end_ns);
  std::map<std::size_t, std::vector<std::pair<std::int64_t, int>>> events;
  double busy = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    if (!r.trial) continue;
    busy += seconds_between(r.start_ns, r.end_ns);
    std::size_t phase = i;
    while (records[phase].parent > 0) phase = static_cast<std::size_t>(records[phase].parent);
    events[phase].emplace_back(r.start_ns, +1);
    events[phase].emplace_back(r.end_ns, -1);
  }
  double tail = 0.0;
  for (auto& [phase, list] : events) {
    std::sort(list.begin(), list.end());  // ends (-1) sort before starts at equal times
    const std::int64_t last_end = list.back().first;
    std::int64_t drop = list.front().first;
    int running = 0;
    for (const auto& [time, step] : list) {
      const bool saturated = running >= static_cast<int>(threads);
      running += step;
      if (saturated && running < static_cast<int>(threads)) drop = time;
    }
    tail += seconds_between(drop, last_end);
  }
  m["support.parallel.busy_ratio"] = wall > 0.0 ? busy / (static_cast<double>(threads) * wall) : 0.0;
  m["support.parallel.tail_s"] = tail;
}

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return denominator == 0 ? 0.0 : static_cast<double>(numerator) / static_cast<double>(denominator);
}

/// The per-layer metrics every workload derives the same way from its span
/// log, trace totals and counter deltas. Layers a workload does not run
/// read 0.
LayerMetrics common_layers(const SpanLog& log, const TraceTotals& totals,
                           const Repetition& rep, std::size_t threads) {
  LayerMetrics m;
  for (const auto& [name, unit] : layer_metric_units()) m[name] = 0.0;
  auto groups = group_records(log.records());
  const auto& samples = log.samples();
  const auto samples_of = [&samples](const std::string& name) {
    const auto it = samples.find(name);
    return it == samples.end() ? std::vector<double>{} : it->second;
  };
  const auto counter = [&rep](const std::string& name) -> double {
    const auto it = rep.counters.find(name);
    return it == rep.counters.end() ? 0.0 : static_cast<double>(it->second);
  };

  m["mobility.step_s"] = groups["mobility.step"].busy_s;
  m["mobility.init_s"] = groups["mobility.deploy"].total_s + groups["mobility.initialize"].total_s;
  m["topology.kinetic.start_s"] = groups["topology.kinetic.start"].total_s;
  m["topology.kinetic.advance_s"] = groups["topology.kinetic.advance"].busy_s;
  const auto advance = samples_of("topology.kinetic.advance");
  m["topology.kinetic.advance_us_p50"] = quantile(advance, 0.5) * 1e6;
  m["topology.kinetic.advance_us_p99"] = quantile(advance, 0.99) * 1e6;
  m["topology.kinetic.movers_per_step"] = ratio(totals.movers, totals.steps);
  m["topology.kinetic.delta_per_step"] = ratio(totals.delta, totals.steps);
  m["topology.kinetic.candidate_edges"] = static_cast<double>(totals.max_candidates);
  m["topology.kinetic.repair_ratio"] = ratio(totals.incremental_repairs, totals.steps);
  m["topology.kinetic.full_rebuilds"] = static_cast<double>(totals.full_rebuilds);
  m["topology.kinetic.radius_growths"] = static_cast<double>(totals.radius_growths);
  m["topology.kinetic.radius_shrinks"] = static_cast<double>(totals.radius_shrinks);
  m["topology.kinetic.mass_move_rebuilds"] = static_cast<double>(totals.mass_move_rebuilds);
  m["topology.kinetic.boundary_crossings"] = static_cast<double>(totals.boundary_crossings);
  const NamedSpans& solves = groups["topology.emst.solve"];
  m["topology.emst.solve_s"] = solves.total_s;
  m["topology.emst.solve_ms_p50"] = quantile(solves.each_s, 0.5) * 1e3;
  m["topology.emst.solves"] = static_cast<double>(solves.each_s.size());
  m["topology.emst.doubling_rounds"] = counter("emst.doubling_rounds");
  m["topology.emst.dense_fallbacks"] = counter("emst.dense_fallbacks");
  m["topology.emst.grid_rebuilds"] = counter("emst.grid_rebuilds");
  m["sim.curve_s"] = groups["sim.curve"].busy_s;
  m["sim.trace_build_s"] = groups["sim.trace_build"].total_s;
  m["sim.trace_query_s"] = groups["sim.trace_query"].total_s;
  m["sim.breakpoints_retained"] = static_cast<double>(totals.breakpoints);
  m["sim.steps_solved"] = static_cast<double>(totals.curves);
  const NamedSpans& iterations = groups["core.iteration"];
  m["core.iteration_s_p50"] = quantile(iterations.each_s, 0.5);
  m["core.iteration_s_max"] = quantile(iterations.each_s, 1.0);
  m["core.fold_s"] = groups["core.fold"].total_s;
  m["core.rs_estimate_s"] = groups["core.rs_estimate"].total_s;
  parallel_occupancy(log.records(), threads, m);
  const auto pool = [&rep](const std::string& name) -> double {
    const auto it = rep.pool_counters.find(name);
    return it == rep.pool_counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  m["support.parallel.tasks"] = counter("pool.tasks_executed");
  m["support.parallel.steals"] = pool("pool.steals");
  m["trace.spans"] = static_cast<double>(log.records().size());
  return m;
}

/// Checks a canary result against golden.json; returns the failures.
std::vector<std::string> check_canary(const std::string& workload, const std::string& digest) {
  const std::string pinned = golden().canary(workload);
  if (pinned.empty()) return {"canary: no pinned digest for " + workload + " in golden.json"};
  if (pinned != digest) {
    return {"canary: " + workload + " digest " + digest + " != pinned " + pinned};
  }
  return {};
}

/// Root seed of input set `input` of a run with seed `seed`.
std::uint64_t input_seed(std::uint64_t seed, std::size_t input) {
  return manet::substream_seed(seed, 1000 + input);
}

/// Spins the pool's workers up (they start lazily on the first batch).
void warm_pool(std::size_t threads) {
  manet::set_max_parallelism(threads);
  const auto ids = manet::parallel_for_trials(
      threads * 4, 0, [](std::size_t trial, Rng&) { return trial; });
  if (ids.size() != threads * 4) throw manet::ConfigError("pool warm-up lost trials");
}

// ---------------------------------------------------------------------------
// paper_figures
// ---------------------------------------------------------------------------

struct FigurePoint {
  double rs = 0.0;
  MtrmResult result;
};

/// Figures 2 and 3 l-sweeps at the paper's 10^4 steps per trace, each data
/// point with its r_stationary estimate, solved like the figure binaries:
/// the points fan out on the parallel engine and each point's iterations
/// nest inside it.
class PaperFigures final : public Workload {
 public:
  explicit PaperFigures(WorkloadParams params) : params_(std::move(params)) {
    iterations_ = params_.tiny ? 2 : 8;
    steps_ = params_.tiny ? 500 : 10000;
    stationary_trials_ = params_.tiny ? 100 : 1000;
  }

  std::string name() const override { return "paper_figures"; }
  std::size_t threads() const override { return params_.threads; }
  std::vector<std::pair<std::string, std::string>> phase_units() const override {
    return {{"fig2_s", "s"}, {"fig3_s", "s"}};
  }

  std::vector<std::string> setup() override {
    const auto l_values = manet::experiments::figure_l_values();
    for (const bool drunkard : {false, true}) {
      std::vector<MtrmConfig> configs;
      for (const double l : l_values) {
        MtrmConfig config =
            drunkard ? manet::experiments::drunkard_experiment(l, manet::Preset::kPaper)
                     : manet::experiments::waypoint_experiment(l, manet::Preset::kPaper);
        config.iterations = iterations_;
        config.steps = steps_;
        configs.push_back(config);
      }
      configs_[drunkard ? 1 : 0] = std::move(configs);
    }
    warm_pool(params_.threads);
    if (params_.canary) return {};
    WorkloadParams canary_params = params_;
    canary_params.seed = kCanarySeed;
    canary_params.tiny = true;
    canary_params.canary = true;
    PaperFigures canary(canary_params);
    canary.setup();
    canary_digest_ = canary.run(0).result_digest;
    return check_canary(name(), canary_digest_);
  }

  void teardown() override {
    configs_[0].clear();
    configs_[1].clear();
    manet::set_max_parallelism(0);
  }

  Repetition run(std::size_t input) override {
    Repetition rep;
    const CounterWindow window;
    const double cpu_start = process_cpu_s();
    std::vector<std::string> digests;
    for (const int figure : {0, 1}) {
      const std::int64_t start = now_ns();
      const auto points = solve_sweep(input, figure);
      const double seconds = seconds_between(start, now_ns());
      rep.phases.emplace_back(figure == 0 ? "fig2_s" : "fig3_s", seconds);
      rep.wall_s += seconds;
      for (const FigurePoint& point : points) {
        digests.push_back(hex_bits(std::span<const double>(&point.rs, 1)));
        digests.push_back(result_digest(point.result));
      }
    }
    rep.cpu_s = process_cpu_s() - cpu_start;
    window.close(rep);
    rep.result_digest = combine_digests(digests);
    rep.attempted = 2 * configs_[0].size();
    return rep;
  }

  Repetition run_traced(std::size_t input, SpanLog& log, LayerMetrics& layers) override {
    Repetition rep;
    TraceTotals totals;
    const CounterWindow window;
    std::vector<std::string> digests;
    {
      const SpanLog::Scope root(log, "workload.paper_figures");
      for (const int figure : {0, 1}) {
        const SpanLog::Scope phase(log, figure == 0 ? "phase.fig2" : "phase.fig3");
        const auto& configs = configs_[static_cast<std::size_t>(figure)];
        struct TracedPoint {
          FigurePoint point;
          TraceTotals totals;
          SpanLog log;
        };
        auto traced = manet::parallel_for_trials(
            configs.size(), figure_seed(input, figure),
            [this, &configs](std::size_t li, Rng& rng) {
              TracedPoint out;
              {
                const SpanLog::Scope span(out.log, "point");
                const MtrmConfig& config = configs[li];
                out.point.rs = traced_estimate_mtr(config.node_count, Box2(config.side),
                                                   mtr_options(), rng, out.log);
                out.point.result =
                    traced_solve_mtrm(config, rng, out.log, out.totals, IterationOptions{});
              }
              return out;
            });
        for (TracedPoint& point : traced) {
          log.adopt(std::move(point.log));
          totals.merge(point.totals);
          digests.push_back(hex_bits(std::span<const double>(&point.point.rs, 1)));
          digests.push_back(result_digest(point.point.result));
        }
      }
    }
    window.close(rep);
    totals.add_to(rep.counters);
    rep.wall_s = seconds_between(log.records()[0].start_ns, log.records()[0].end_ns);
    rep.result_digest = combine_digests(digests);
    rep.attempted = 2 * configs_[0].size();
    layers = common_layers(log, totals, rep, params_.threads);
    return rep;
  }

  /// The sweep at one thread must equal the N-thread sweep: same results,
  /// same work counters (except pool.*, which counts the batches and chunks
  /// the thread count makes).
  void check_traced_extras(const Repetition& reference, Repetition& out) override {
    manet::set_max_parallelism(1);
    const Repetition serial = run(0);
    manet::set_max_parallelism(params_.threads);
    const auto work = [](Counters counters) {
      std::erase_if(counters,
                    [](const auto& entry) { return entry.first.starts_with("pool."); });
      return counters;
    };
    ++out.attempted;
    if (serial.result_digest != reference.result_digest ||
        work(serial.counters) != work(reference.counters)) {
      fail(out, 1, "1-thread sweep differs from the " + std::to_string(params_.threads) +
                       "-thread sweep");
    }
  }

 private:
  std::uint64_t figure_seed(std::size_t input, int figure) const {
    return manet::substream_seed(input_seed(params_.seed, input),
                                 static_cast<std::uint64_t>(2 + figure));
  }

  manet::MtrOptions mtr_options() const {
    manet::MtrOptions options;
    options.trials = stationary_trials_;
    options.target_probability = 0.95;  // the figure binaries' --rs-quantile default
    return options;
  }

  std::vector<FigurePoint> solve_sweep(std::size_t input, int figure) const {
    const auto& configs = configs_[static_cast<std::size_t>(figure)];
    const manet::MtrOptions options = mtr_options();
    return manet::parallel_for_trials(
        configs.size(), figure_seed(input, figure),
        [&configs, &options](std::size_t li, Rng& rng) {
          const MtrmConfig& config = configs[li];
          FigurePoint point;
          point.rs = manet::estimate_mtr<2>(config.node_count, Box2(config.side), options, rng)
                         .range;
          point.result = manet::solve_mtrm<2>(config, rng);
          return point;
        });
  }

  WorkloadParams params_;
  std::size_t iterations_ = 0;
  std::size_t steps_ = 0;
  std::size_t stationary_trials_ = 0;
  std::vector<MtrmConfig> configs_[2];
};

// ---------------------------------------------------------------------------
// large_n
// ---------------------------------------------------------------------------

/// n = 16384 nodes in l = 1024 on one thread: one-shot stationary solves of
/// fresh deployments, then one random-waypoint and one drunkard trace.
class LargeN final : public Workload {
 public:
  /// Waypoint nodes that never move. With every node in motion (the paper's
  /// p_stationary = 0) about half of the movers cross a cell per step, right
  /// at the kinetic engine's mass-move threshold, so the trace flips between
  /// incremental repair and full rebuilds and its cost swings with the seed.
  /// 55% stationary leaves ~7.4k movers: the waypoint trace measures
  /// incremental repair at large n; the drunkard trace measures the gate.
  static constexpr double kWaypointStationary = 0.55;

  explicit LargeN(WorkloadParams params) : params_(std::move(params)) {
    params_.threads = 1;  // parallelism inside a trace is parked
    nodes_ = params_.tiny ? 2048 : 16384;
    side_ = params_.tiny ? 362.0 : 1024.0;
    stationary_trials_ = params_.tiny ? 2 : 8;
    waypoint_steps_ = params_.tiny ? 30 : 100;
    drunkard_steps_ = params_.tiny ? 30 : 100;
  }

  std::string name() const override { return "large_n"; }
  std::size_t threads() const override { return params_.threads; }
  std::vector<std::pair<std::string, std::string>> phase_units() const override {
    return {{"stationary_s", "s"}, {"waypoint_trace_s", "s"}, {"drunkard_trace_s", "s"}};
  }

  std::vector<std::string> setup() override {
    for (const bool drunkard : {false, true}) {
      MtrmConfig config;
      config.node_count = nodes_;
      config.side = side_;
      config.steps = drunkard ? drunkard_steps_ : waypoint_steps_;
      config.iterations = 1;
      config.mobility = drunkard ? manet::MobilityConfig::paper_drunkard(side_)
                                 : manet::MobilityConfig::paper_waypoint(side_);
      if (!drunkard) config.mobility.waypoint.p_stationary = kWaypointStationary;
      config.validate();
      configs_[drunkard ? 1 : 0] = config;
    }
    warm_pool(1);
    if (params_.canary) return {};
    WorkloadParams canary_params = params_;
    canary_params.seed = kCanarySeed;
    canary_params.tiny = true;
    canary_params.canary = true;
    LargeN canary(canary_params);
    canary.setup();
    canary_digest_ = canary.run(0).result_digest;
    return check_canary(name(), canary_digest_);
  }

  void teardown() override { manet::set_max_parallelism(0); }

  Repetition run(std::size_t input) override {
    const std::uint64_t seed = input_seed(params_.seed, input);
    Repetition rep;
    const CounterWindow window;
    const double cpu_start = process_cpu_s();
    std::vector<std::string> digests;
    std::int64_t start = now_ns();
    {
      Rng rng = manet::substream(seed, 1);
      const auto sample =
          manet::sample_stationary_critical_ranges<2>(nodes_, Box2(side_), stationary_trials_, rng);
      digests.push_back(hex_bits(sample.sorted_radii()));
    }
    rep.phases.emplace_back("stationary_s", seconds_between(start, now_ns()));
    for (const int trace : {0, 1}) {
      start = now_ns();
      Rng rng = manet::substream(seed, static_cast<std::uint64_t>(2 + trace));
      digests.push_back(result_digest(manet::solve_mtrm<2>(configs_[trace], rng)));
      rep.phases.emplace_back(trace == 0 ? "waypoint_trace_s" : "drunkard_trace_s",
                              seconds_between(start, now_ns()));
    }
    rep.cpu_s = process_cpu_s() - cpu_start;
    window.close(rep);
    for (const auto& phase : rep.phases) rep.wall_s += phase.second;
    rep.result_digest = combine_digests(digests);
    rep.attempted = 3;
    return rep;
  }

  Repetition run_traced(std::size_t input, SpanLog& log, LayerMetrics& layers) override {
    const std::uint64_t seed = input_seed(params_.seed, input);
    Repetition rep;
    TraceTotals totals;
    std::vector<std::string> digests;
    std::vector<std::string> tree_digests;
    std::vector<TracedIteration> kept;
    const CounterWindow window;
    {
      const SpanLog::Scope root(log, "workload.large_n");
      {
        const SpanLog::Scope phase(log, "phase.stationary");
        Rng rng = manet::substream(seed, 1);
        const auto sample =
            traced_stationary_sample(nodes_, Box2(side_), stationary_trials_, rng, log);
        digests.push_back(hex_bits(sample.sorted_radii()));
      }
      for (const int trace : {0, 1}) {
        const SpanLog::Scope phase(log, trace == 0 ? "phase.waypoint" : "phase.drunkard");
        Rng rng = manet::substream(seed, static_cast<std::uint64_t>(2 + trace));
        IterationOptions options;
        options.digest_trees = true;
        options.keep_final = true;
        digests.push_back(
            result_digest(traced_solve_mtrm(configs_[trace], rng, log, totals, options, &kept)));
      }
    }
    window.close(rep);
    totals.add_to(rep.counters);
    for (const TracedIteration& iteration : kept) {
      tree_digests.push_back(manet::hex_u64(iteration.tree_digest));
    }
    rep.wall_s = seconds_between(log.records()[0].start_ns, log.records()[0].end_ns);
    rep.result_digest = combine_digests(digests);
    rep.tree_digest = combine_digests(tree_digests);
    rep.attempted = 3;
    // Independent check of the kinetic engine: the last step's bottleneck
    // equals a one-shot EMST solve of the same positions.
    for (const TracedIteration& iteration : kept) {
      ++rep.attempted;
      const double one_shot =
          manet::critical_range<2>(iteration.final_positions, Box2(side_));
      if (one_shot != iteration.final_bottleneck) {
        fail(rep, 1, "kinetic bottleneck differs from the one-shot EMST solve");
      }
    }
    layers = common_layers(log, totals, rep, params_.threads);
    return rep;
  }

 private:
  WorkloadParams params_;
  std::size_t nodes_ = 0;
  double side_ = 0.0;
  std::size_t stationary_trials_ = 0;
  std::size_t waypoint_steps_ = 0;
  std::size_t drunkard_steps_ = 0;
  MtrmConfig configs_[2];
};

// ---------------------------------------------------------------------------
// campaign_query
// ---------------------------------------------------------------------------

constexpr const char* kCampaignName = "perfbench_fig7";

/// Deletes a scratch directory and flushes the deletion to disk, so the next
/// repetition's fsyncs do not commit this one's clean-up and every repetition
/// starts from the same I/O state. Always called outside the timed phases.
void remove_and_sync(const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  ::sync();
}

manet::service::ServerOptions server_options(const std::filesystem::path& socket_path) {
  manet::service::ServerOptions options;
  options.socket_path = socket_path;
  options.quiet = true;
  return options;
}

/// Runs a ManetdServer on a background thread for the lifetime of the
/// object; the destructor stops it over the socket and joins the thread.
class ServerThread {
 public:
  ServerThread(manet::service::QueryEngine engine, const std::filesystem::path& socket_path)
      : server_(std::move(engine), server_options(socket_path)), socket_path_(socket_path) {
    // manet-lint: allow(thread-confinement) — the benchmark's manetd runs beside its client; no result depends on scheduling
    thread_ = std::thread([this] {
      try {
        server_.serve();
      } catch (const std::exception& error) {
        error_ = error.what();
        failed_.store(true, std::memory_order_release);
      }
    });
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  ~ServerThread() {
    if (!thread_.joinable()) return;
    try {
      stop();
    } catch (const std::exception&) {
      // The server is already gone (bind failure); join below returns.
    }
    if (thread_.joinable()) thread_.join();
  }

  /// Connects, retrying while the listener is still binding.
  manet::service::Socket dial() {
    for (int attempt = 0;; ++attempt) {
      try {
        return manet::service::dial_unix(socket_path_);
      } catch (const manet::ConfigError&) {
        if (attempt >= 2000 || failed_.load(std::memory_order_acquire)) throw;
        // manet-lint: allow(nondet-time) — waits for the listener to bind; no result depends on it
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  /// Sends the stop request on a fresh connection and joins the thread.
  void stop() {
    manet::service::Socket socket = dial();
    socket.send_all("{\"op\":\"stop\"}\n");
    std::string line;
    socket.read_line(line);
    socket.close_stream();
    thread_.join();
    if (!error_.empty()) throw manet::ConfigError("manetd: " + error_);
  }

  const manet::service::ServerReport& report() const { return server_.report(); }

 private:
  manet::service::ManetdServer server_;
  std::filesystem::path socket_path_;
  std::string error_;  ///< written by the server thread before it sets failed_
  // manet-lint: allow(thread-confinement) — lets dial() stop retrying once the server thread died
  std::atomic<bool> failed_{false};
  std::thread thread_;
};

/// A Figure-7-shaped p_stationary sweep through CampaignRunner: a cold run
/// into a fresh store, the same campaign resumed with every unit cached,
/// then a closed loop of manetd queries from one client over the socket.
class CampaignQuery final : public Workload {
 public:
  explicit CampaignQuery(WorkloadParams params) : params_(std::move(params)) {
    steps_ = params_.tiny ? 20 : 100;
    iterations_ = params_.tiny ? 4 : 64;
    queries_ = params_.tiny ? 1000 : 20000;
    // Two runners leave the host's other cores to the fsync kernel threads
    // and the rest of the machine: on a shared 4-core host, 4 runners with
    // the runner's static chunks made the wall time follow the scheduler.
    params_.threads = std::min<std::size_t>(params_.threads, 2);
  }

  std::string name() const override { return "campaign_query"; }
  std::size_t threads() const override { return params_.threads; }
  std::vector<std::pair<std::string, std::string>> phase_units() const override {
    return {{"cold_s", "s"},
            {"resume_s", "s"},
            {"query_s", "s"},
            {"query_p50_us", "us"},
            {"query_p99_us", "us"}};
  }

  std::vector<std::string> setup() override {
    p_values_ = manet::experiments::figure7_pstationary_values();
    if (params_.tiny) p_values_ = {0.0, 0.5, 1.0};
    build_requests(p_values_.size());
    std::filesystem::create_directories(params_.scratch_dir);
    warm_pool(params_.threads);
    if (params_.canary) return {};
    WorkloadParams canary_params = params_;
    canary_params.seed = kCanarySeed;
    canary_params.tiny = true;
    canary_params.canary = true;
    canary_params.scratch_dir = params_.scratch_dir + "/canary";
    CampaignQuery canary(canary_params);
    canary.setup();
    const Repetition rep = canary.run(0);
    std::filesystem::remove_all(canary_params.scratch_dir);
    canary_digest_ = rep.result_digest;
    std::vector<std::string> failures = check_canary(name(), canary_digest_);
    failures.insert(failures.end(), rep.failures.begin(), rep.failures.end());
    return failures;
  }

  void teardown() override {
    remove_and_sync(params_.scratch_dir);
    manet::set_max_parallelism(0);
  }

  Repetition run(std::size_t input) override {
    const std::vector<manet::MtrmSweepPoint> points = sweep_points(input);
    Repetition rep;
    const std::filesystem::path dir = next_rep_dir();
    const CounterWindow window;

    manet::campaign::CampaignOptions options = campaign_options(dir, dir / "store");
    const double cpu_start = process_cpu_s();
    std::int64_t start = now_ns();
    const auto cold = manet::campaign::CampaignRunner(kCampaignName, options).run_points(points);
    rep.phases.emplace_back("cold_s", seconds_between(start, now_ns()));
    const std::string cold_bytes = manet::read_text_file(dir / "campaign" / "result.json");

    options.resume = true;
    start = now_ns();
    manet::campaign::CampaignRunner resumed(kCampaignName, options);
    const auto warm = resumed.run_points(points);
    rep.phases.emplace_back("resume_s", seconds_between(start, now_ns()));

    start = now_ns();
    std::vector<std::string> responses;
    std::vector<double> latencies_us;
    {
      manet::service::QueryEngine engine;
      engine.load_campaign_dir(dir / "campaign");
      ServerThread server(std::move(engine), dir / "manetd.sock");
      manet::service::Socket client = server.dial();
      responses.reserve(requests_.size());
      latencies_us.reserve(requests_.size());
      std::string line;
      for (const std::string& request : requests_) {
        const std::int64_t sent = now_ns();
        client.send_all(request);
        client.read_line(line);
        latencies_us.push_back(static_cast<double>(now_ns() - sent) * 1e-3);
        responses.push_back(line);
      }
      client.close_stream();
      server.stop();
    }
    rep.phases.emplace_back("query_s", seconds_between(start, now_ns()));
    rep.cpu_s = process_cpu_s() - cpu_start;
    window.close(rep);
    for (const auto& phase : rep.phases) rep.wall_s += phase.second;
    rep.phases.emplace_back("query_p50_us", quantile(latencies_us, 0.5));
    rep.phases.emplace_back("query_p99_us", quantile(latencies_us, 0.99));

    // Checks, outside the timed phases and the counter window.
    const std::string resumed_bytes = manet::read_text_file(dir / "campaign" / "result.json");
    check_results(input, cold, warm, resumed.report(), cold_bytes, resumed_bytes, rep);
    check_responses(respond_in_process(dir / "campaign", nullptr), responses, rep);
    remove_and_sync(dir);
    return rep;
  }

  Repetition run_traced(std::size_t input, SpanLog& log, LayerMetrics& layers) override {
    const std::vector<manet::MtrmSweepPoint> points = sweep_points(input);
    Repetition rep;
    TraceTotals totals;
    const std::filesystem::path dir = next_rep_dir();
    const manet::campaign::ResultStore store(dir / "store");
    std::vector<MtrmResult> cold;
    std::vector<MtrmResult> warm;
    std::uint64_t bytes_written = 0;
    manet::campaign::CampaignReport resume_report;
    std::vector<std::string> responses;
    std::vector<std::string> expected;
    manet::service::ServerReport server_report;
    const std::vector<manet::campaign::UnitWork> units =
        manet::campaign::decompose_sweep(points, 1);
    const std::uint64_t key = manet::campaign::campaign_key_for(kCampaignName, units);
    const CounterWindow window;
    {
      // The root span holds only what run() times: the cold campaign, the
      // resumed one and the query loop. Replay-only work follows it under a
      // root of its own, so the traced wall compares like with like.
      const SpanLog::Scope root(log, "workload.campaign_query");
      {
        // Cold: CampaignRunner's cold path step by step, with its I/O, so the
        // phase does what cold_s times: probe every unit, write the manifest,
        // compute and save the units on the parallel engine with a checkpoint
        // flush every checkpoint_every units, merge, then the final manifest
        // and result.json.
        const SpanLog::Scope phase(log, "phase.cold");
        for (const auto& unit : units) {
          const SpanLog::Scope load(log, "campaign.store_load");
          if (store.load(unit.canonical, unit.end - unit.begin).has_value()) {
            fail(rep, 1, "cold replay found a unit already stored");
          }
        }
        const std::filesystem::path replay_dir = dir / "replay_cold";
        std::filesystem::create_directories(replay_dir);
        manet::campaign::Manifest manifest;
        manifest.campaign = kCampaignName;
        manifest.campaign_key = key;
        manifest.points = points.size();
        for (const auto& unit : units) {
          manifest.units.push_back(
              manet::campaign::ManifestUnit{unit.point, unit.begin, unit.end, unit.key});
        }
        {
          const SpanLog::Scope flush(log, "campaign.checkpoint_flush");
          manet::campaign::save_manifest_atomic(replay_dir / "manifest.json", manifest);
        }
        struct TracedUnit {
          std::vector<MtrmIterationOutcome> outcomes;
          TraceTotals totals;
          SpanLog log;
        };
        const std::size_t checkpoint_every =
            campaign_options(dir, dir / "store").checkpoint_every;
        // manet-lint: allow(thread-confinement) — orders the replay's manifest flushes
        std::mutex progress_mutex;
        std::size_t done = 0;
        auto traced = manet::parallel_for_trials(
            units.size(), 0, [&](std::size_t job, Rng&) {
              TracedUnit out;
              const auto& unit = units[job];
              const auto& point = points[unit.point];
              {
                const SpanLog::Scope span(out.log, "campaign.unit", /*trial=*/true);
                {
                  const SpanLog::Scope compute(out.log, "campaign.unit_compute");
                  IterationOptions options;
                  options.trial = false;
                  for (std::size_t it = unit.begin; it < unit.end; ++it) {
                    Rng rng = manet::substream(point.trial_root, it);
                    TracedIteration iteration = traced_iteration(point.config, rng, options);
                    out.log.adopt(std::move(iteration.log));
                    out.totals.merge(iteration.totals);
                    out.outcomes.push_back(std::move(iteration.outcome));
                  }
                }
                {
                  const SpanLog::Scope save(out.log, "campaign.store_save");
                  store.save(unit.canonical, out.outcomes);
                }
                const std::lock_guard<std::mutex> lock(progress_mutex);
                if (++done % checkpoint_every == 0) {
                  const SpanLog::Scope flush(out.log, "campaign.checkpoint_flush");
                  manifest.progress.units_done = done;
                  manifest.progress.executed = done;
                  manet::campaign::save_manifest_atomic(replay_dir / "manifest.json",
                                                        manifest);
                }
              }
              return out;
            });
        std::vector<std::vector<MtrmIterationOutcome>> outcomes;
        for (TracedUnit& unit : traced) {
          log.adopt(std::move(unit.log));
          totals.merge(unit.totals);
          outcomes.push_back(std::move(unit.outcomes));
        }
        {
          const SpanLog::Scope merge(log, "core.fold");
          cold = manet::campaign::merge_unit_outcomes(points, units, std::move(outcomes));
        }
        manifest.progress.complete = true;
        {
          const SpanLog::Scope flush(log, "campaign.checkpoint_flush");
          manet::campaign::save_manifest_atomic(replay_dir / "manifest.json", manifest);
        }
        const SpanLog::Scope write(log, "campaign.write_result");
        manet::campaign::write_campaign_result(replay_dir, kCampaignName, key, points, units,
                                               cold);
      }
      {
        // Resume: the real runner over the replay's store, which must find
        // every unit cached.
        const SpanLog::Scope phase(log, "phase.resume");
        const SpanLog::Scope run(log, "campaign.run_points");
        manet::campaign::CampaignRunner runner(kCampaignName,
                                               campaign_options(dir, dir / "store"));
        runner.run_points(points);
        resume_report = runner.report();
      }
      {
        const SpanLog::Scope phase(log, "phase.query");
        manet::service::QueryEngine engine;
        {
          const SpanLog::Scope load(log, "service.load");
          engine.load_campaign_dir(dir / "campaign");
        }
        ServerThread server(std::move(engine), dir / "manetd.sock");
        manet::service::Socket client = server.dial();
        LayerCalls round_trips;
        std::string line;
        for (const std::string& request : requests_) {
          const std::int64_t sent = now_ns();
          client.send_all(request);
          client.read_line(line);
          round_trips.add(now_ns() - sent);
          responses.push_back(line);
        }
        log.attach("service.round_trip", std::move(round_trips));
        client.close_stream();
        server.stop();
        server_report = server.report();
      }
    }
    rep.wall_s = seconds_between(log.records()[0].start_ns, log.records()[0].end_ns);
    {
      const SpanLog::Scope replay(log, "replay.checks");
      {
        // Every unit loads back from the store, as a resume reads it.
        std::vector<std::vector<MtrmIterationOutcome>> outcomes;
        for (const auto& unit : units) {
          const SpanLog::Scope load(log, "campaign.store_load");
          auto loaded = store.load(unit.canonical, unit.end - unit.begin);
          if (!loaded) {
            fail(rep, 1, "resume replay missed a stored unit");
            loaded.emplace();
          }
          outcomes.push_back(std::move(*loaded));
        }
        warm = manet::campaign::merge_unit_outcomes(points, units, std::move(outcomes));
      }
      // The engine and cache without the socket.
      LayerCalls responds;
      expected = respond_in_process(dir / "campaign", &responds);
      log.attach("service.respond", std::move(responds));
    }
    window.close(rep);
    totals.add_to(rep.counters);

    // Checks: the replays are bit-identical to the runner's campaign.
    const std::string runner_bytes = manet::read_text_file(dir / "campaign" / "result.json");
    const std::string replay_bytes = manet::read_text_file(dir / "replay_cold" / "result.json");
    rep.attempted += 2;
    if (replay_bytes != runner_bytes) {
      fail(rep, 1, "traced cold replay result.json differs from CampaignRunner's");
    }
    std::vector<std::string> digests;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      digests.push_back(result_digest(cold[i]));
      if (result_digest(warm[i]) != digests.back()) {
        fail(rep, 1, "resume replay result differs from the cold replay");
      }
    }
    rep.result_digest = combine_digests(digests);
    const auto reference = reference_cold_bytes_.find(input);
    if (reference != reference_cold_bytes_.end() && replay_bytes != reference->second) {
      fail(rep, 1, "traced cold replay result.json differs from the untraced run");
    }
    check_responses(expected, responses, rep);
    for (const auto& unit : units) {
      std::error_code ec;
      bytes_written += std::filesystem::file_size(store.path_for(unit.canonical), ec);
    }
    remove_and_sync(dir);

    layers = common_layers(log, totals, rep, params_.threads);
    auto groups = group_records(log.records());
    std::vector<double> saves = groups["campaign.store_save"].each_s;
    layers["campaign.run_points_s"] = groups["campaign.run_points"].total_s;
    layers["campaign.unit_compute_s"] = groups["campaign.unit_compute"].total_s;
    layers["campaign.store_save_s"] = groups["campaign.store_save"].total_s;
    layers["campaign.store_save_ms_p99"] = quantile(saves, 0.99) * 1e3;
    layers["campaign.store_load_s"] = groups["campaign.store_load"].total_s;
    layers["campaign.bytes_written"] = static_cast<double>(bytes_written);
    layers["campaign.units_computed"] = static_cast<double>(units.size());
    layers["campaign.units_cached"] = static_cast<double>(resume_report.cache_hits);
    layers["campaign.checkpoint_flushes"] = static_cast<double>(checkpoint_flushes_);
    layers["campaign.cache_hit_ratio"] =
        ratio(resume_report.cache_hits, resume_report.units_total);
    layers["service.load_s"] = groups["service.load"].total_s;
    const auto& samples = log.samples();
    const auto respond = samples.find("service.respond");
    const auto trip = samples.find("service.round_trip");
    if (respond != samples.end()) {
      layers["service.respond_us_p50"] = quantile(respond->second, 0.5) * 1e6;
      layers["service.respond_us_p99"] = quantile(respond->second, 0.99) * 1e6;
    }
    if (trip != samples.end()) {
      layers["service.round_trip_us_p50"] = quantile(trip->second, 0.5) * 1e6;
    }
    layers["service.cache_hits"] = static_cast<double>(server_report.cache_hits);
    layers["service.cache_misses"] = static_cast<double>(server_report.cache_misses);
    layers["service.cache_hit_ratio"] =
        ratio(server_report.cache_hits, server_report.cache_hits + server_report.cache_misses);
    layers["service.errors"] = static_cast<double>(response_errors_);
    return rep;
  }

 private:
  std::filesystem::path next_rep_dir() {
    const std::filesystem::path dir =
        std::filesystem::path(params_.scratch_dir) / ("rep" + std::to_string(rep_counter_++));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

  manet::campaign::CampaignOptions campaign_options(const std::filesystem::path& dir,
                                                    const std::filesystem::path& store) const {
    manet::campaign::CampaignOptions options;
    options.dir = (dir / "campaign").string();
    options.store_dir = store.string();
    options.unit_iterations = 1;
    options.quiet = true;
    return options;
  }

  /// The closed-loop request sequence: mtrm / rquantile / phase queries
  /// over more distinct keys than the server's 256-entry response cache,
  /// drawn from a hot set and the full set so the loop sees hits, misses
  /// and evictions.
  void build_requests(std::size_t point_count) {
    std::vector<std::string> keys;
    const auto render = [](manet::JsonValue request) { return request.dump() + "\n"; };
    for (std::size_t point = 0; point < point_count; ++point) {
      manet::JsonValue request = manet::JsonValue::object();
      request.set("op", manet::JsonValue::string("mtrm"));
      request.set("campaign", manet::JsonValue::string(kCampaignName));
      request.set("point", manet::JsonValue::number(point));
      keys.push_back(render(std::move(request)));
      for (int k = 1; k <= 20; ++k) {
        manet::JsonValue rq = manet::JsonValue::object();
        rq.set("op", manet::JsonValue::string("rquantile"));
        rq.set("campaign", manet::JsonValue::string(kCampaignName));
        rq.set("point", manet::JsonValue::number(point));
        rq.set("fraction", manet::JsonValue::number(0.05 * k));
        keys.push_back(render(std::move(rq)));
      }
    }
    const char* stats[] = {"range_for_time[0].mean", "range_never_connected.mean",
                           "mean_critical_range.mean", "range_for_component[0].mean"};
    for (int v = 0; v <= 100; ++v) {
      for (const char* stat : stats) {
        manet::JsonValue request = manet::JsonValue::object();
        request.set("op", manet::JsonValue::string("phase"));
        request.set("campaign", manet::JsonValue::string(kCampaignName));
        request.set("param", manet::JsonValue::string("p_stationary"));
        request.set("value", manet::JsonValue::number(0.01 * v));
        request.set("stat", manet::JsonValue::string(stat));
        keys.push_back(render(std::move(request)));
      }
    }
    Rng rng = manet::substream(params_.seed, 1000);
    std::vector<std::size_t> hot;
    for (int i = 0; i < 128; ++i) hot.push_back(rng.uniform_index(keys.size()));
    requests_.clear();
    requests_.reserve(queries_);
    for (std::size_t q = 0; q < queries_; ++q) {
      const std::size_t index = rng.uniform() < 0.6 ? hot[rng.uniform_index(hot.size())]
                                                    : rng.uniform_index(keys.size());
      requests_.push_back(keys[index]);
    }
  }

  /// The sweep of input set `input`: Figure 7's p_stationary values with
  /// per-point trial roots drawn as experiments::solve_mtrm_sweep draws them.
  std::vector<manet::MtrmSweepPoint> sweep_points(std::size_t input) const {
    std::vector<manet::MtrmSweepPoint> points;
    const std::uint64_t seed = input_seed(params_.seed, input);
    for (std::size_t i = 0; i < p_values_.size(); ++i) {
      MtrmConfig config = manet::experiments::sweep_base_config(manet::Preset::kQuick);
      config.steps = steps_;
      config.iterations = iterations_;
      config.mobility.waypoint.p_stationary = p_values_[i];
      Rng point_rng = manet::substream(seed, i);
      points.push_back(manet::MtrmSweepPoint{config, point_rng.next_u64()});
    }
    return points;
  }

  void check_results(std::size_t input, const std::vector<MtrmResult>& cold,
                     const std::vector<MtrmResult>& warm,
                     const manet::campaign::CampaignReport& resume_report,
                     const std::string& cold_bytes, const std::string& resumed_bytes,
                     Repetition& rep) {
    std::vector<std::string> digests;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      digests.push_back(result_digest(cold[i]));
      if (result_digest(warm[i]) != digests.back()) {
        fail(rep, 1, "resumed campaign result differs from the cold one");
      }
    }
    rep.result_digest = combine_digests(digests);
    rep.attempted += 2 * resume_report.units_total;
    if (resume_report.cache_hits != resume_report.units_total) {
      fail(rep, resume_report.units_total - resume_report.cache_hits,
           "resumed campaign recomputed units");
    }
    const auto count = rep.counters.find("campaign.checkpoint_flushes");
    checkpoint_flushes_ = count == rep.counters.end() ? 0 : count->second;
    ++rep.attempted;
    if (resumed_bytes != cold_bytes) {
      fail(rep, 1, "resumed campaign result.json differs from the cold one");
    }
    const auto [reference, first] = reference_cold_bytes_.try_emplace(input, cold_bytes);
    if (!first && cold_bytes != reference->second) {
      fail(rep, 1, "cold campaign result.json differs between repetitions");
    }
  }

  /// ManetdServer::respond() of every request, in order, on a fresh
  /// in-process server over `campaign_dir`; each call is timed into `calls`
  /// when given.
  std::vector<std::string> respond_in_process(const std::filesystem::path& campaign_dir,
                                              LayerCalls* calls) const {
    manet::service::QueryEngine engine;
    engine.load_campaign_dir(campaign_dir);
    manet::service::ManetdServer local(std::move(engine),
                                       server_options(campaign_dir / "unused.sock"));
    std::vector<std::string> responses;
    responses.reserve(requests_.size());
    for (const std::string& request : requests_) {
      const std::string line = request.substr(0, request.size() - 1);
      const std::int64_t start = now_ns();
      responses.push_back(local.respond(line));
      if (calls != nullptr) calls->add(now_ns() - start);
    }
    return responses;
  }

  /// Every socket response must be byte-equal to the in-process respond()
  /// of the same line and must not be an error.
  void check_responses(const std::vector<std::string>& expected,
                       const std::vector<std::string>& responses, Repetition& rep) {
    std::size_t errors = 0;
    std::size_t mismatches = 0;
    std::map<std::string, bool> ok_by_response;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (i >= responses.size() || responses[i] != expected[i]) ++mismatches;
      auto [it, inserted] = ok_by_response.try_emplace(expected[i], false);
      if (inserted) {
        const manet::JsonValue* ok = manet::JsonValue::parse(expected[i]).find("ok");
        it->second = ok != nullptr && ok->as_bool();
      }
      if (!it->second) ++errors;
    }
    response_errors_ = errors;
    rep.attempted += expected.size();
    if (mismatches != 0) {
      fail(rep, mismatches,
           std::to_string(mismatches) + " manetd responses differ from in-process respond()");
    }
    if (errors != 0) fail(rep, errors, std::to_string(errors) + " manetd error responses");
  }

  WorkloadParams params_;
  std::size_t steps_ = 0;
  std::size_t iterations_ = 0;
  std::size_t queries_ = 0;
  std::vector<double> p_values_;
  std::vector<std::string> requests_;
  std::size_t rep_counter_ = 0;
  std::map<std::size_t, std::string> reference_cold_bytes_;  ///< by input set
  std::uint64_t checkpoint_flushes_ = 0;
  std::size_t response_errors_ = 0;
};

}  // namespace

std::vector<std::string> workload_names() { return {"paper_figures", "large_n", "campaign_query"}; }

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadParams& params) {
  if (name == "paper_figures") return std::make_unique<PaperFigures>(params);
  if (name == "large_n") return std::make_unique<LargeN>(params);
  if (name == "campaign_query") return std::make_unique<CampaignQuery>(params);
  return nullptr;
}

}  // namespace perfbench
