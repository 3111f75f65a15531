// End-to-end and per-layer metric assembly shared by every workload.
#include "measure.hpp"
#include "workloads.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

void add_end_to_end(Result& result, double wall_s, std::uint64_t ops,
                    std::vector<double> latency_ms, std::vector<double> setup_samples_s,
                    double peak_mb, bool check_tail_mode) {
  std::sort(latency_ms.begin(), latency_ms.end());
  const Tail tail = tail_percentile(latency_ms);
  const double ops_per_s = wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0;
  result.metrics = {
      {"wall_s", wall_s, "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"op_ms_p50", nearest_rank(latency_ms, 50.0), "ms"},
      {"op_ms_tail", tail.value, "ms"},
      {"setup_s", median_of(std::move(setup_samples_s)), "s"},
      {"peak_rss_mb", peak_mb, "MiB"},
  };
  char line[128];
  std::snprintf(line, sizeof line, "op_ms_tail is p%g: rank %zu of %zu samples, %zu beyond",
                tail.percentile, tail.rank, tail.samples, tail.beyond);
  result.notes.push_back(line);
  if (check_tail_mode) {
    // Trial latency here is multimodal; a tail rank in a gap between modes
    // would jump from run to run.
    result.notes.push_back(std::string("op_ms_tail rank inside a latency mode: ") +
                           (rank_in_mode(latency_ms, tail.rank) ? "yes" : "NO"));
  }
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> list = {
      {"core.setup_us", "us"},
      {"core.run_ms", "ms"},
      {"core.ns_per_effective", "ns"},
      {"core.effective_ratio", "ratio"},
      {"core.fallback_trials", "count"},
      {"sched.factory_us", "us"},
      {"sched.weighted_accept_ratio", "ratio"},
      {"graph.output_graph_ms", "ms"},
      {"graph.verify_ms", "ms"},
      {"graph.verify_share", "ratio"},
      {"faults.trial_ms.crash", "ms"},
      {"faults.trial_ms.reset", "ms"},
      {"faults.trial_ms.edge-burst", "ms"},
      {"faults.trial_ms.edge-rate", "ms"},
      {"campaign.record_write_us", "us"},
      {"campaign.record_bytes", "bytes"},
      {"campaign.pool_idle_share", "ratio"},
      {"campaign.reduce_ms", "ms"},
      {"analysis.load_ms", "ms"},
      {"analysis.report_ms", "ms"},
      {"serve.handle_us", "us"},
      {"serve.http_us", "us"},
      {"serve.bytes_per_response", "bytes"},
      {"serve.miss_ms", "ms"},
      {"trace.overhead_s", "s"},
  };
  return list;
}

void emit_per_layer(Result& result, const std::vector<Metric>& values) {
  result.metrics.clear();
  for (const auto& [name, unit] : per_layer_metrics()) {
    double value = 0.0;
    for (const Metric& m : values) {
      if (m.name == name) value = m.value;
    }
    result.metrics.push_back(Metric{name, value, unit});
  }
}

}  // namespace perfbench
