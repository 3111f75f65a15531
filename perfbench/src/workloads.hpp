// The benchmark's workloads. Each runs a fixed amount of work derived from
// the seed, checks the outputs by invariants, and returns either the
// end-to-end metrics (untraced) or the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace netcons::campaign {
struct CampaignSpec;
}  // namespace netcons::campaign

namespace perfbench {

/// Campaign workloads use at most this many worker threads and the serving
/// workload this many client connections (the reference machine has 4
/// vCPUs; the rest stay free for the daemon's own threads and the OS).
inline constexpr int kThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string work_dir;  ///< Scratch space for record files and caches.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<std::string> violations;  ///< Empty: every check held.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< Human-readable context lines.
};

/// End-to-end metrics shared by every workload, from the untraced run.
/// `latency_ms` holds every op's latency; `setup_samples_s` are repeated
/// set-ups whose median is reported.
void add_end_to_end(Result& result, double wall_s, std::uint64_t ops,
                    std::vector<double> latency_ms, std::vector<double> setup_samples_s,
                    double peak_mb, bool check_tail_mode);

[[nodiscard]] double median_of(std::vector<double> values);

/// Reject a grid whose step budget at some n is below its budget at n/2:
/// the 64 n^5 budgets overflow uint64 above n ~ 3100 and wrap to a tiny
/// budget, and trials failing on it must never be timed. Throws
/// std::runtime_error naming the unit and both budgets.
void check_step_budgets(const netcons::campaign::CampaignSpec& spec);

[[nodiscard]] bool is_campaign_workload(const std::string& name);
[[nodiscard]] Result run_campaign_workload(const Options& options);
[[nodiscard]] Result run_serve_workload(const Options& options);

/// Every per-layer metric name with its unit, in output order. A workload
/// that never enters a layer reports 0 for that layer's metrics.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fill `result.metrics` from `values`, in per_layer_metrics() order.
void emit_per_layer(Result& result, const std::vector<Metric>& values);

}  // namespace perfbench
