#include <algorithm>
#include <bit>
#include <chrono>
#include <sstream>

#include "bench.hpp"
#include "support/fs.hpp"

namespace perfbench {

std::int64_t now_ns() noexcept {
  // manet-lint: allow(nondet-time) — benchmark timing is the product; no result depends on it
  static const auto epoch = std::chrono::steady_clock::now();
  // manet-lint: allow(nondet-time) — benchmark timing is the product; no result depends on it
  const auto elapsed = std::chrono::steady_clock::now() - epoch;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
}

void LayerCalls::add(std::int64_t ns) {
  const std::uint64_t value = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  ++count;
  busy_ns += value;
  ++histogram[static_cast<std::size_t>(std::bit_width(value))];
  samples_s.push_back(static_cast<double>(value) * 1e-9);
}

void SpanLog::open(std::string name, bool trial) {
  SpanRecord record;
  record.name = std::move(name);
  record.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  record.trial = trial;
  record.start_ns = now_ns();
  records_.push_back(std::move(record));
  open_.push_back(records_.size() - 1);
}

void SpanLog::close() {
  records_[open_.back()].end_ns = now_ns();
  open_.pop_back();
}

void SpanLog::attach(std::string name, LayerCalls&& calls) {
  auto& samples = samples_[name];
  samples.insert(samples.end(), calls.samples_s.begin(), calls.samples_s.end());
  SpanRecord record;
  record.name = std::move(name);
  record.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  record.aggregate = true;
  record.count = calls.count;
  record.busy_ns = calls.busy_ns;
  record.histogram = std::move(calls.histogram);
  records_.push_back(std::move(record));
}

void SpanLog::adopt(SpanLog&& child) {
  const auto offset = static_cast<std::int64_t>(records_.size());
  const std::int64_t anchor = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  for (SpanRecord& record : child.records_) {
    record.parent = record.parent < 0 ? anchor : record.parent + offset;
    records_.push_back(std::move(record));
  }
  for (auto& [name, values] : child.samples_) {
    auto& samples = samples_[name];
    samples.insert(samples.end(), values.begin(), values.end());
  }
  child.records_.clear();
  child.samples_.clear();
}

std::vector<std::int64_t> self_times_ns(const std::vector<SpanRecord>& records) {
  std::vector<std::vector<std::size_t>> children(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].parent >= 0) children[static_cast<std::size_t>(records[i].parent)].push_back(i);
  }
  std::vector<std::int64_t> self(records.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& span = records[i];
    if (span.aggregate) continue;
    intervals.clear();
    std::int64_t busy = 0;
    for (const std::size_t c : children[i]) {
      const SpanRecord& child = records[c];
      if (child.aggregate) {
        busy += static_cast<std::int64_t>(child.busy_ns);
      } else {
        intervals.emplace_back(std::max(child.start_ns, span.start_ns),
                               std::min(child.end_ns, span.end_ns));
      }
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [begin, end] : intervals) {
      const std::int64_t from = std::max(begin, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered - busy;
  }
  return self;
}

void write_span_file(const std::string& path, const std::string& workload,
                     const std::vector<SpanRecord>& records) {
  const std::vector<std::int64_t> self = self_times_ns(records);
  std::ostringstream out;
  out << "{\"schema\":1,\"workload\":\"" << workload << "\",\"spans\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    if (i != 0) out << ",\n";
    out << "{\"id\":" << (i + 1) << ",\"parent\":" << (r.parent + 1) << ",\"name\":\""
        << r.name << "\"";
    if (r.aggregate) {
      out << ",\"kind\":\"aggregate\",\"count\":" << r.count << ",\"busy_ns\":" << r.busy_ns
          << ",\"histogram\":[";
      bool first = true;
      for (std::size_t b = 0; b < r.histogram.size(); ++b) {
        if (r.histogram[b] == 0) continue;
        out << (first ? "" : ",") << "[" << b << "," << r.histogram[b] << "]";
        first = false;
      }
      out << "]}";
    } else {
      out << ",\"kind\":\"span\",\"trial\":" << (r.trial ? "true" : "false")
          << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
          << ",\"self_ns\":" << self[i] << "}";
    }
  }
  out << "]}\n";
  manet::write_text_file_atomic(path, out.str());
}

std::string check_span_file(const std::string& path) {
  const manet::JsonValue doc = manet::JsonValue::parse(manet::read_text_file(path));
  const auto& spans = doc.at("spans").items();
  if (spans.empty()) return "no spans";
  std::vector<SpanRecord> records;
  std::vector<std::int64_t> stored_self;
  records.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const manet::JsonValue& s = spans[i];
    const auto id = static_cast<std::int64_t>(s.at("id").as_uint());
    const auto parent = static_cast<std::int64_t>(s.at("parent").as_uint());
    const std::string where = "span " + std::to_string(id) + ": ";
    if (id != static_cast<std::int64_t>(i) + 1) return where + "ids are not 1..N in order";
    if (parent >= id) return where + "parent is not an earlier span";
    SpanRecord r;
    r.name = s.at("name").as_string();
    r.parent = parent - 1;
    r.aggregate = s.at("kind").as_string() == "aggregate";
    if (parent == 0 && r.aggregate) return where + "aggregate without a parent span";
    if (parent > 0 && records[static_cast<std::size_t>(parent - 1)].aggregate) {
      return where + "parent is an aggregate";
    }
    if (r.aggregate) {
      r.count = s.at("count").as_uint();
      r.busy_ns = s.at("busy_ns").as_uint();
      std::uint64_t histogram_total = 0;
      for (const auto& bucket : s.at("histogram").items()) {
        histogram_total += bucket.items().at(1).as_uint();
      }
      if (histogram_total != r.count) return where + "histogram does not sum to count";
      stored_self.push_back(0);
    } else {
      r.start_ns = static_cast<std::int64_t>(s.at("start_ns").as_double());
      r.end_ns = static_cast<std::int64_t>(s.at("end_ns").as_double());
      if (r.end_ns < r.start_ns) return where + "ends before it starts";
      if (parent > 0) {
        const SpanRecord& p = records[static_cast<std::size_t>(parent - 1)];
        if (r.start_ns < p.start_ns || r.end_ns > p.end_ns) {
          return where + "interval outside its parent's";
        }
      }
      stored_self.push_back(static_cast<std::int64_t>(s.at("self_ns").as_double()));
    }
    records.push_back(std::move(r));
  }
  const std::vector<std::int64_t> self = self_times_ns(records);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].aggregate) continue;
    const std::string where = "span " + std::to_string(i + 1) + ": ";
    if (self[i] != stored_self[i]) return where + "stored self time differs from recomputed";
    if (self[i] < 0) return where + "negative self time";
  }
  return {};
}

}  // namespace perfbench
