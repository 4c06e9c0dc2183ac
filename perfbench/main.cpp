// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <paper_figures|large_n|campaign_query> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--spans <file>]
//
// Sets the workload up several times (setup_s is their median), then repeats
// its complete solution until --seconds are used, checking every output gate
// on the way. --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced repetitions and reports the per-layer metrics. Human-
// readable tables go first; the last stdout line is the JSON result.
// perfbench/run.py builds this program and is the command BENCHMARK.json runs.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string spans;
  std::string golden;
  std::string describe;
  std::string scratch;
};

/// Median, quartiles and sample count of one metric.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& values) {
  return {quantile(values, 0.5), quantile(values, 0.25), quantile(values, 0.75), values.size()};
}

std::string format(double value) {
  std::ostringstream out;
  out << std::setprecision(6) << value;
  return out.str();
}

void print_row(const std::string& name, const std::string& unit, const Summary& s) {
  std::cout << "  " << std::left << std::setw(38) << name << std::setw(7) << unit
            << std::right << std::setw(14) << format(s.median) << std::setw(14)
            << format(s.q1) << std::setw(14) << format(s.q3) << std::setw(5) << s.n << '\n';
}

void print_header(const std::string& title) {
  std::cout << title << '\n'
            << "  " << std::left << std::setw(38) << "metric" << std::setw(7) << "unit"
            << std::right << std::setw(14) << "median" << std::setw(14) << "q1"
            << std::setw(14) << "q3" << std::setw(5) << "n" << '\n';
}

/// Checks run across repetitions: identical results and work counters.
class Gate {
 public:
  Gate(const Options& options, std::string workload)
      : options_(options), workload_(std::move(workload)) {}

  void fail(std::size_t count, const std::string& message) {
    failed_ += count;
    failures_.push_back(message);
  }

  /// A one-off check outside the repetitions (set-up canary, span file).
  void check(const std::vector<std::string>& failures) {
    ++attempted_;
    if (!failures.empty()) fail(1, failures.front());
    failures_.insert(failures_.end(), failures.begin() + (failures.empty() ? 0 : 1),
                     failures.end());
  }

  void count(const Repetition& rep) {
    attempted_ += rep.attempted;
    failed_ += rep.failed;
    failures_.insert(failures_.end(), rep.failures.begin(), rep.failures.end());
  }

  /// The first untraced repetition of each input set is its reference;
  /// later ones must repeat it. Input set 0 is checked against the pins.
  void untraced(std::size_t input, const Repetition& rep) {
    count(rep);
    const auto [it, first] = references_.try_emplace(input, rep);
    if (first) {
      if (input != 0) return;
      const std::string pinned = options_.tiny ? std::string()
                                               : golden().pin(workload_, options_.seed, "result");
      pinned_result_ = !pinned.empty();
      if (pinned_result_ && pinned != rep.result_digest) {
        fail(1, "result digest " + rep.result_digest + " != pinned " + pinned);
      }
      return;
    }
    if (rep.result_digest != it->second.result_digest) fail(1, "result digest drifted");
    if (rep.counters != it->second.counters) fail(1, "work counters drifted");
  }

  /// A traced replay must equal the untraced run of the same input set:
  /// results, and the engine counters under `prefixes` (the replay runs the
  /// same solver work; campaign and manetd bookkeeping differ by design).
  void traced(std::size_t input, const Repetition& rep,
              const std::vector<std::string>& prefixes) {
    count(rep);
    const Repetition& reference = references_.at(input);
    if (rep.result_digest != reference.result_digest) {
      fail(1, "traced replay result " + rep.result_digest + " != untraced " +
                  reference.result_digest);
    }
    for (const auto& [name, value] : reference.counters) {
      for (const std::string& prefix : prefixes) {
        if (!name.starts_with(prefix)) continue;
        const auto it = rep.counters.find(name);
        if (it == rep.counters.end() || it->second != value) {
          fail(1, "traced replay counter " + name + " differs from the untraced run");
        }
      }
    }
    const auto [it, first] = traced_references_.try_emplace(input, rep);
    if (first) {
      if (input != 0) return;
      const std::string pinned =
          options_.tiny ? std::string() : golden().pin(workload_, options_.seed, "trees");
      pinned_trees_ = !pinned.empty();
      if (pinned_trees_ && pinned != rep.tree_digest) {
        fail(1, "tree digest " + rep.tree_digest + " != pinned " + pinned);
      }
      return;
    }
    if (rep.tree_digest != it->second.tree_digest) fail(1, "tree digest drifted");
    if (rep.counters != it->second.counters) fail(1, "traced work counters drifted");
  }

  const Repetition& reference() const { return references_.at(0); }
  const Repetition* traced_reference() const {
    const auto it = traced_references_.find(0);
    return it == traced_references_.end() ? nullptr : &it->second;
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  bool pinned_result() const { return pinned_result_; }
  bool pinned_trees() const { return pinned_trees_; }

 private:
  const Options& options_;
  std::string workload_;
  std::map<std::size_t, Repetition> references_;         ///< by input set
  std::map<std::size_t, Repetition> traced_references_;  ///< by input set
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
  bool pinned_result_ = false;
  bool pinned_trees_ = false;
};

Options parse(int argc, char** argv) {
  manet::CliParser cli("perfbench: end-to-end benchmark of the paper figures, large-n "
                       "traces and the campaign/query path");
  cli.add_option("workload", "paper_figures | large_n | campaign_query", "");
  cli.add_option("seed", "workload seed (inputs are generated from it)", "1");
  cli.add_option("seconds", "measurement time per run", "10");
  cli.add_option("trace", "0 = end-to-end metrics, 1 = per-layer metrics", "0");
  cli.add_flag("tiny", "toy sizes (self-test)");
  cli.add_option("spans", "span file written by --trace 1", "");
  cli.add_option("golden", "pinned digests", "perfbench/golden.json");
  cli.add_option("describe", "git describe of the measured tree", "unknown");
  cli.add_option("scratch", "scratch root for stores, campaigns and sockets", ".bench_build/tmp");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help_text();
    std::exit(0);
  }
  Options options;
  options.workload = cli.string_value("workload");
  options.seed = cli.uint_value("seed");
  options.seconds = cli.double_value("seconds");
  options.trace = cli.uint_value("trace") != 0;
  options.tiny = cli.flag("tiny");
  options.spans = cli.string_value("spans");
  options.golden = cli.string_value("golden");
  options.describe = cli.string_value("describe");
  options.scratch = cli.string_value("scratch");
  if (!(options.seconds > 0.0)) throw manet::ConfigError("--seconds must be > 0");
  if (options.spans.empty()) {
    options.spans = ".bench_build/spans/" + options.workload + "-" +
                    std::to_string(options.seed) + ".json";
  }
  return options;
}

int run(int argc, char** argv, std::int64_t process_start) {
  const Options options = parse(argc, argv);
  const auto names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw manet::ConfigError("unknown --workload '" + options.workload + "'");
  }
  load_golden(options.golden);

  // manet-lint: allow(thread-confinement) — provenance only: the host's core count
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  WorkloadParams params;
  params.seed = options.seed;
  params.tiny = options.tiny;
  params.threads = std::min<std::size_t>(nproc, 4);
  params.scratch_dir = options.scratch + "/" + options.workload + "-" + std::to_string(getpid());

  Gate gate(options, options.workload);

  // Set-up, several times: the first round counts from process start.
  const std::size_t setup_rounds = options.tiny ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (std::size_t round = 0; round < setup_rounds; ++round) {
    if (workload) workload->teardown();
    const std::int64_t start = round == 0 ? process_start : now_ns();
    workload = make_workload(options.workload, params);
    const std::vector<std::string> failures = workload->setup();
    setup_s.push_back(seconds_between(start, now_ns()));
    gate.check(failures);
  }

  // `rounds` counts the warm-up too: it is part of the measured window.
  const auto deadline_reached = [&options](std::int64_t start, std::size_t rounds,
                                           std::size_t min_rounds) {
    const double elapsed = seconds_between(start, now_ns());
    const double per_round = elapsed / static_cast<double>(rounds);
    return rounds >= min_rounds && elapsed + per_round > options.seconds;
  };
  const std::size_t min_reps = options.tiny ? 1 : kInputSets;

  std::vector<Repetition> untraced;
  std::vector<Repetition> traced;
  std::vector<LayerMetrics> layers;
  SpanLog spans;
  const std::int64_t reps_start = now_ns();
  // Warm-up: one repetition of input set 0, checked like every other but not
  // timed, so first-touch costs (page faults, fresh scratch directories, cold
  // caches) stay out of the medians.
  gate.untraced(0, workload->run(0));
  if (!options.trace) {
    do {
      const std::size_t input = untraced.size() % kInputSets;
      untraced.push_back(workload->run(input));
      gate.untraced(input, untraced.back());
    } while (!deadline_reached(reps_start, untraced.size() + 1, min_reps + 1));
  } else {
    bool extras_done = false;
    do {
      const std::size_t input = traced.size() % kInputSets;
      untraced.push_back(workload->run(input));
      gate.untraced(input, untraced.back());
      SpanLog log;
      layers.emplace_back();
      traced.push_back(workload->run_traced(input, log, layers.back()));
      gate.traced(input, traced.back(), {"kinetic.", "emst."});
      spans.adopt(std::move(log));
      if (!extras_done) {
        Repetition extras;
        workload->check_traced_extras(gate.reference(), extras);
        gate.count(extras);
        extras_done = true;
      }
    } while (!deadline_reached(reps_start, traced.size() + 1, options.tiny ? 2 : 3));
  }
  const double rss_mb = peak_rss_mb();
  workload->teardown();
  std::filesystem::remove_all(params.scratch_dir);

  // ---- report -------------------------------------------------------------
  const std::string dirty =
      options.describe.ends_with("-dirty") ? "yes (uncommitted changes)" : "no";
  std::cout << "perfbench workload=" << options.workload << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << (options.trace ? 1 : 0)
            << (options.tiny ? " tiny" : "") << '\n'
            << "  git_describe=" << options.describe << " dirty=" << dirty
            << " nproc=" << nproc << " threads=" << workload->threads()
            << " build=" << PERFBENCH_BUILD_TYPE
            << " MANET_METRICS=" << (manet::metrics::compiled_in() ? "ON" : "OFF")
            << " closed_loop_clients=" << (options.workload == "campaign_query" ? 1 : 0)
            << '\n';

  manet::JsonValue metrics = manet::JsonValue::object();
  const auto emit = [&metrics](const std::string& name, const std::string& unit, double value) {
    manet::JsonValue entry = manet::JsonValue::object();
    entry.set("value", manet::JsonValue::number(value));
    entry.set("unit", manet::JsonValue::string(unit));
    metrics.set(name, std::move(entry));
  };

  std::vector<double> wall;
  std::vector<double> cpu;
  for (const Repetition& rep : untraced) {
    wall.push_back(rep.wall_s);
    cpu.push_back(rep.cpu_s);
  }
  const Summary wall_summary = summarize(wall);
  const double failed_ratio =
      gate.attempted() == 0 ? 1.0
                            : static_cast<double>(gate.failed()) /
                                  static_cast<double>(gate.attempted());

  if (!options.trace) {
    print_header("end-to-end metrics (untraced repetitions)");
    print_row("wall_s", "s", wall_summary);
    print_row("cpu_s", "s", summarize(cpu));
    print_row("setup_s", "s", summarize(setup_s));
    print_row("peak_rss_mb", "MiB", summarize({rss_mb}));
    print_row("failed_ratio", "ratio", summarize({failed_ratio}));
    for (const auto& [phase, unit] : workload->phase_units()) {
      std::vector<double> values;
      for (const Repetition& rep : untraced) {
        for (const auto& [name, value] : rep.phases) {
          if (name == phase) values.push_back(value);
        }
      }
      print_row(phase, unit, summarize(values));
    }
    emit("wall_s", "s", wall_summary.median);
    emit("cpu_s", "s", summarize(cpu).median);
    emit("setup_s", "s", summarize(setup_s).median);
  } else {
    std::vector<double> traced_wall;
    for (const Repetition& rep : traced) traced_wall.push_back(rep.wall_s);
    const double overhead = quantile(traced_wall, 0.5) / wall_summary.median;
    print_header("per-layer metrics (traced repetitions; 0 = layer not run by this workload)");
    for (const auto& [name, unit] : layer_metric_units()) {
      std::vector<double> values;
      for (LayerMetrics& m : layers) {
        if (name == "trace.overhead_ratio") m[name] = overhead;
        values.push_back(m[name]);
      }
      const Summary s = summarize(values);
      print_row(name, unit, s);
      emit(name, unit, s.median);
    }
    std::cout << "  tracing overhead: traced wall " << format(quantile(traced_wall, 0.5))
              << " s vs untraced wall " << format(wall_summary.median) << " s\n";
    write_span_file(options.spans, options.workload, spans.records());
    std::cout << "  spans: " << spans.records().size() << " records -> " << options.spans
              << '\n';
    const std::string problem = check_span_file(options.spans);
    gate.check(problem.empty() ? std::vector<std::string>{}
                               : std::vector<std::string>{"span file: " + problem});
    std::cout << "  span file check: " << (problem.empty() ? "ok" : problem) << '\n';
  }

  const Repetition& reference = gate.reference();
  std::cout << "outputs (input set 0)\n  result_digest=" << reference.result_digest
            << (gate.pinned_result() ? " (pinned: checked)" : " (no pin for this seed)") << '\n';
  if (gate.traced_reference() != nullptr && !gate.traced_reference()->tree_digest.empty()) {
    std::cout << "  tree_digest=" << gate.traced_reference()->tree_digest
              << (gate.pinned_trees() ? " (pinned: checked)" : " (no pin for this seed)")
              << '\n';
  }
  std::cout << "  canary_digest=" << workload->canary_digest() << '\n';
  std::cout << "work counters of input set 0 (identical in every repetition of a set)\n";
  const Repetition& counted = options.trace ? *gate.traced_reference() : reference;
  for (const auto& [name, value] : counted.counters) {
    std::cout << "  " << name << " = " << value << '\n';
  }
  std::cout << "scheduling counters (vary with timing; not gated)\n";
  for (const auto& [name, value] : counted.pool_counters) {
    std::cout << "  " << name << " = " << value << '\n';
  }
  std::cout << "checks: attempted=" << gate.attempted() << " failed=" << gate.failed()
            << " failed_ratio=" << format(failed_ratio) << '\n';
  for (const std::string& failure : gate.failures()) std::cout << "  FAILED: " << failure << '\n';

  manet::JsonValue result = manet::JsonValue::object();
  result.set("correct", manet::JsonValue::boolean(gate.failed() == 0 && gate.failures().empty()));
  result.set("attempted", manet::JsonValue::number(gate.attempted()));
  result.set("failed", manet::JsonValue::number(gate.failed()));
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = now_ns();
  try {
    return run(argc, argv, process_start);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
