#pragma once

// Shared types of the end-to-end benchmark: the span log of the traced run,
// the per-repetition record every workload returns, and the workload seam
// the benchmark program (main.cpp) runs. See perfbench/README.md for the contract.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

/// Nanoseconds on the monotonic clock since the process-wide epoch (the
/// first call). Every span and timing in the benchmark uses this one clock.
std::int64_t now_ns() noexcept;

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) noexcept {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// One record of the span log. A "span" has an interval; an "aggregate"
/// folds many short calls of one layer (a mobility step, a kinetic advance)
/// into a count, a busy time and a log2-nanosecond histogram, because one
/// span per step would be 10^4 records per trace.
struct SpanRecord {
  std::string name;
  std::int64_t parent = -1;  ///< index into the log; -1 for a root
  bool aggregate = false;
  bool trial = false;  ///< a trial body run by the parallel engine
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;    ///< aggregates: calls folded in
  std::uint64_t busy_ns = 0;  ///< aggregates: summed call time
  std::vector<std::uint64_t> histogram;  ///< aggregates: calls per log2(ns) bucket
};

/// Accumulates the calls of one layer inside the innermost open span; added
/// to the log as an aggregate record by SpanLog::attach.
struct LayerCalls {
  std::uint64_t count = 0;
  std::uint64_t busy_ns = 0;
  std::vector<std::uint64_t> histogram = std::vector<std::uint64_t>(64, 0);
  std::vector<double> samples_s;  ///< per-call seconds, kept for percentiles

  void add(std::int64_t ns);
};

/// Spans of one thread of work, kept in memory. Trials run on the parallel
/// engine each fill their own log and return it with their result; the
/// caller adopts it under its innermost open span, so no log is shared
/// between threads.
class SpanLog {
 public:
  /// Opens a span under the innermost open span.
  void open(std::string name, bool trial = false);
  /// Closes the innermost open span.
  void close();
  /// Appends `calls` as an aggregate child of the innermost open span.
  void attach(std::string name, LayerCalls&& calls);
  /// Moves every record of `child` under the innermost open span.
  void adopt(SpanLog&& child);

  const std::vector<SpanRecord>& records() const noexcept { return records_; }
  /// Per-call samples of the attached aggregates, by layer name.
  const std::map<std::string, std::vector<double>>& samples() const noexcept {
    return samples_;
  }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, bool trial = false) : log_(log) {
      log_.open(std::move(name), trial);
    }
    ~Scope() { log_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
  };

 private:
  std::vector<SpanRecord> records_;
  std::vector<std::size_t> open_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Self time of every record: a span's duration minus the part of its
/// interval that child spans cover (their union, since parallel children
/// overlap) minus its aggregates' busy time. Aggregates have none.
std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& records);

/// Writes the log as one JSON document (streamed, no DOM: a traced run can
/// hold 10^5 records).
void write_span_file(const std::string& path, const std::string& workload,
                     const std::vector<SpanRecord>& records);

/// Parses a span file with support/json and checks its structure: ids
/// ascending, every parent an earlier span, child intervals inside their
/// parent's, stored self times equal to the recomputed ones and >= 0.
/// Returns an empty string when valid, else the first problem found.
std::string check_span_file(const std::string& path);

/// Work counters of one repetition, by name. Deterministic for a fixed seed
/// and compared across repetitions, thread counts and the traced replay.
using Counters = std::map<std::string, std::uint64_t>;

/// Everything one repetition of a workload produced.
struct Repetition {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time (user + system) over the timed phases
  /// Named phase timings in seconds (fig2_s, cold_s, ...).
  std::vector<std::pair<std::string, double>> phases;
  /// Digest of the workload's results (value bits, FNV-1a).
  std::string result_digest;
  /// Per-step tree-weight digest of the traced replay (large_n only).
  std::string tree_digest;
  Counters counters;        ///< gated: must repeat exactly
  Counters pool_counters;   ///< scheduling-dependent: reported, never gated
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
};

/// Input sets per run: repetition k solves input set k mod kInputSets, each
/// drawn from the run's seed, so a run's medians (and its peak memory) span
/// several inputs rather than one draw.
inline constexpr std::size_t kInputSets = 4;

/// Parameters every workload shares.
struct WorkloadParams {
  std::uint64_t seed = 0;
  bool tiny = false;     ///< toy sizes: the self-test and the canary
  bool canary = false;   ///< this instance is another workload's canary
  std::size_t threads = 1;  ///< threads available; a workload may use fewer
  std::string scratch_dir;  ///< per-process temp directory inside the checkout
};

/// Per-layer metric values of one traced repetition, by metric name.
using LayerMetrics = std::map<std::string, double>;

/// A benchmark workload. setup() builds the inputs, spins up the thread
/// pool and runs the pinned canary; teardown() undoes it so set-up can be
/// timed repeatedly.
class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Threads the workload's parallel calls run on.
  virtual std::size_t threads() const = 0;
  /// End-to-end phase metrics this workload reports, with units.
  virtual std::vector<std::pair<std::string, std::string>> phase_units() const = 0;

  /// Returns one line per failed check (the canary digest).
  virtual std::vector<std::string> setup() = 0;
  virtual void teardown() = 0;
  /// One complete, untraced solution of input set `input` through the
  /// top-level entry points.
  virtual Repetition run(std::size_t input) = 0;
  /// The same solution replayed through the layer entry points with spans
  /// around each call; its results must be bit-identical to run(input)'s.
  virtual Repetition run_traced(std::size_t input, SpanLog& log, LayerMetrics& layers) = 0;
  /// Checks only the traced mode runs, once, against run(0)
  /// (1 thread against N threads).
  virtual void check_traced_extras(const Repetition& reference, Repetition& out) {
    (void)reference;
    (void)out;
  }
  /// Result digest of the canary run by the last setup().
  const std::string& canary_digest() const noexcept { return canary_digest_; }

 protected:
  std::string canary_digest_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadParams& params);
std::vector<std::string> workload_names();

/// Per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

/// Reads metric counters whose names start with one of `prefixes`.
Counters read_counters(const std::vector<std::string>& prefixes);
/// after - before, per name (names only in `after` count from 0).
Counters counter_delta(const Counters& before, const Counters& after);

/// FNV-1a over a digest list, rendered as 16 hex digits.
std::string combine_digests(const std::vector<std::string>& parts);

/// The q-quantile (0..1) of `values` by linear interpolation; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// CPU time (user + system, all threads) this process has used, in seconds.
double process_cpu_s();

/// Pinned digests (perfbench/golden.json), loaded once by main().
struct Golden {
  manet::JsonValue doc;
  /// Pinned canary digest of `workload`, or empty.
  std::string canary(const std::string& workload) const;
  /// Pinned digest `kind` ("result" / "trees") for (workload, seed), or empty.
  std::string pin(const std::string& workload, std::uint64_t seed,
                  const std::string& kind) const;
};
const Golden& golden();
void load_golden(const std::string& path);

}  // namespace perfbench
