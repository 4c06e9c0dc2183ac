#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <string_view>

#include "bench.hpp"
#include "support/fs.hpp"
#include "support/hash.hpp"
#include "support/metrics.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"mobility.step_s", "s"},
      {"mobility.init_s", "s"},
      {"topology.kinetic.start_s", "s"},
      {"topology.kinetic.advance_s", "s"},
      {"topology.kinetic.advance_us_p50", "us"},
      {"topology.kinetic.advance_us_p99", "us"},
      {"topology.kinetic.movers_per_step", "count"},
      {"topology.kinetic.delta_per_step", "count"},
      {"topology.kinetic.candidate_edges", "count"},
      {"topology.kinetic.repair_ratio", "ratio"},
      {"topology.kinetic.full_rebuilds", "count"},
      {"topology.kinetic.radius_growths", "count"},
      {"topology.kinetic.radius_shrinks", "count"},
      {"topology.kinetic.mass_move_rebuilds", "count"},
      {"topology.kinetic.boundary_crossings", "count"},
      {"topology.emst.solve_s", "s"},
      {"topology.emst.solve_ms_p50", "ms"},
      {"topology.emst.solves", "count"},
      {"topology.emst.doubling_rounds", "count"},
      {"topology.emst.dense_fallbacks", "count"},
      {"topology.emst.grid_rebuilds", "count"},
      {"sim.curve_s", "s"},
      {"sim.trace_build_s", "s"},
      {"sim.trace_query_s", "s"},
      {"sim.breakpoints_retained", "count"},
      {"sim.steps_solved", "count"},
      {"core.iteration_s_p50", "s"},
      {"core.iteration_s_max", "s"},
      {"core.fold_s", "s"},
      {"core.rs_estimate_s", "s"},
      {"support.parallel.busy_ratio", "ratio"},
      {"support.parallel.tail_s", "s"},
      {"support.parallel.tasks", "count"},
      {"support.parallel.steals", "count"},
      {"campaign.run_points_s", "s"},
      {"campaign.unit_compute_s", "s"},
      {"campaign.store_save_s", "s"},
      {"campaign.store_save_ms_p99", "ms"},
      {"campaign.store_load_s", "s"},
      {"campaign.bytes_written", "bytes"},
      {"campaign.units_computed", "count"},
      {"campaign.units_cached", "count"},
      {"campaign.checkpoint_flushes", "count"},
      {"campaign.cache_hit_ratio", "ratio"},
      {"service.load_s", "s"},
      {"service.respond_us_p50", "us"},
      {"service.respond_us_p99", "us"},
      {"service.round_trip_us_p50", "us"},
      {"service.cache_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.errors", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"trace.spans", "count"},
  };
  return units;
}

Counters read_counters(const std::vector<std::string>& prefixes) {
  Counters out;
  const manet::metrics::Snapshot snapshot = manet::metrics::snapshot();
  for (const auto& counter : snapshot.counters) {
    for (const std::string& prefix : prefixes) {
      if (std::string_view(counter.name).starts_with(prefix)) {
        out[counter.name] = counter.value;
        break;
      }
    }
  }
  return out;
}

Counters counter_delta(const Counters& before, const Counters& after) {
  Counters delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

std::string combine_digests(const std::vector<std::string>& parts) {
  std::uint64_t hash = manet::kFnv1aOffset;
  for (const std::string& part : parts) {
    hash = manet::fnv1a(part, hash);
    hash = manet::fnv1a("\n", hash);
  }
  return manet::hex_u64(hash);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(std::floor(position));
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * weight;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {
Golden g_golden;
}  // namespace

const Golden& golden() { return g_golden; }

void load_golden(const std::string& path) {
  g_golden.doc = manet::JsonValue::parse(manet::read_text_file(path));
}

std::string Golden::canary(const std::string& workload) const {
  const manet::JsonValue* canaries = doc.find("canary");
  const manet::JsonValue* entry = canaries == nullptr ? nullptr : canaries->find(workload);
  return entry == nullptr ? std::string() : entry->as_string();
}

std::string Golden::pin(const std::string& workload, std::uint64_t seed,
                        const std::string& kind) const {
  const manet::JsonValue* pins = doc.find("pins");
  const manet::JsonValue* per_workload = pins == nullptr ? nullptr : pins->find(workload);
  const manet::JsonValue* per_seed =
      per_workload == nullptr ? nullptr : per_workload->find(std::to_string(seed));
  const manet::JsonValue* value = per_seed == nullptr ? nullptr : per_seed->find(kind);
  return value == nullptr ? std::string() : value->as_string();
}

}  // namespace perfbench
