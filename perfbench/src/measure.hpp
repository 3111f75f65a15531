// The benchmark's own arithmetic and instruments: latency percentiles,
// span self time, pool idle share, peak RSS, and the in-memory span log
// the traced runs record into. Everything here is pure or process-local so
// tests/test_measure.cpp can pin it down without running a workload.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Value at percentile `p` (0 < p <= 100) of ascending `sorted` by the
/// nearest-rank rule: the ceil(p/100 * N)-th smallest sample.
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double p);

/// A latency tail: the highest percentile of the fixed ladder
/// {99.9, 99, 95, 90, 75, 50} that leaves at least `min_beyond` samples
/// strictly above its rank, with the counts that justify it. With fewer
/// samples than any rung allows, the median is reported and `beyond` says
/// how thin it is.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< Samples ranked above the percentile's rank.
  std::size_t rank = 0;    ///< 1-based nearest rank of the reported value.
};
[[nodiscard]] Tail tail_percentile(const std::vector<double>& sorted, std::size_t min_beyond = 10);

/// Whether 1-based rank `rank` of ascending `sorted` lies inside a mode of
/// the distribution rather than in a gap between two modes: no two
/// neighbouring samples within `window` ranks of it differ by more than a
/// factor `max_ratio`. A rank in a gap makes the reported percentile jump
/// between modes from run to run.
[[nodiscard]] bool rank_in_mode(const std::vector<double>& sorted, std::size_t rank,
                                std::size_t window = 3, double max_ratio = 1.3);

/// One recorded interval. `parent` is 0 for a root span; ids start at 1.
struct Span {
  const char* name = nullptr;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::int32_t trial = -1;  ///< Global trial (or request) id; -1 outside one.
  std::int32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of it that the
/// union of its direct children covers (children are clipped to the
/// parent, and overlapping children are counted once). Result is indexed
/// like `spans`, in nanoseconds.
[[nodiscard]] std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// 1 - busy / (threads * wall): the share of a pool's thread time spent
/// not running trials (queueing, imbalance at the end, dispatch).
[[nodiscard]] double pool_idle_share(double busy_seconds, int threads, double wall_seconds);

/// Peak resident set (VmHWM) of this process in MiB; 0 if unreadable.
[[nodiscard]] double peak_rss_mb();

/// Reset VmHWM to the current RSS (writes "5" to /proc/self/clear_refs),
/// so the next peak_rss_mb() reports only what happens after this call.
/// Returns false when the kernel refuses.
bool reset_peak_rss();

/// Commit the pending writes of the file system holding `path` (syncfs).
/// Called before set-up, so file creation is not stalled behind the
/// journal work an earlier run left (deleting a run's record files, for
/// one): back to back, records_pipeline's sink set-up otherwise went from
/// 40 us to 200-380 us.
void sync_file_system(const std::string& path);

/// Thread-safe, append-only span log kept in memory until the run ends.
/// Each thread appends to its own buffer; parents come from a per-thread
/// stack of open scopes, so nesting follows the call structure.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// RAII span: open on construction, recorded on destruction. A null log
  /// makes it a no-op, so untraced code paths can share call sites.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::int64_t trial = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    Span span_;
    std::uint32_t saved_parent_ = 0;
    std::int32_t saved_trial_ = -1;
  };

  /// Every span recorded so far, grouped by thread; the log is left empty
  /// (ids keep counting), so a long run can be handed over in parts.
  [[nodiscard]] std::vector<Span> take();

 private:
  struct Buffer {
    int thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local_buffer();
  [[nodiscard]] std::int64_t now_ns() const;

  const std::uint64_t instance_;
  const Clock::time_point origin_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;  ///< Guards buffers_ (the list, not the contents).
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Write `spans` as CSV (name,id,parent,trial,thread,start_ns,end_ns,
/// self_ns), after a header line unless appending.
void write_spans_csv(const std::string& path, const std::vector<Span>& spans, bool append);

/// Sum of durations (ns) of spans named `name`, and how many there were.
struct SpanTotal {
  std::int64_t ns = 0;
  std::size_t count = 0;
  [[nodiscard]] double mean_ms() const { return count ? ns / 1e6 / count : 0.0; }
  [[nodiscard]] double mean_us() const { return count ? ns / 1e3 / count : 0.0; }
};
[[nodiscard]] SpanTotal total_of(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench
