#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace perfbench {

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

Tail tail_percentile(const std::vector<double>& sorted, std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  Tail tail;
  tail.samples = sorted.size();
  if (sorted.empty()) return tail;
  const double n = static_cast<double>(sorted.size());
  for (const double p : kLadder) {
    const auto rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9)), 1, sorted.size());
    tail.percentile = p;
    tail.rank = rank;
    tail.beyond = sorted.size() - rank;
    tail.value = sorted[rank - 1];
    if (tail.beyond >= min_beyond) break;
  }
  return tail;
}

bool rank_in_mode(const std::vector<double>& sorted, std::size_t rank, std::size_t window,
                  double max_ratio) {
  if (sorted.empty() || rank == 0 || rank > sorted.size()) return false;
  const std::size_t lo = rank > window ? rank - window : 1;
  const std::size_t hi = std::min(rank + window, sorted.size());
  for (std::size_t r = lo; r < hi; ++r) {
    const double a = sorted[r - 1];
    const double b = sorted[r];
    if (a <= 0.0 ? b > 0.0 : b / a > max_ratio) return false;
  }
  return true;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::uint32_t max_id = 0;
  for (const Span& span : spans) max_id = std::max(max_id, span.id);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index_of(static_cast<std::size_t>(max_id) + 1, kNone);
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Children grouped by parent and ordered by start, so each parent's
  // covered time is one sweep over the union of its children's intervals.
  std::vector<std::size_t> order;
  order.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t parent = spans[i].parent;
    if (parent != 0 && parent <= max_id && index_of[parent] != kNone) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&spans](std::size_t a, std::size_t b) {
    return spans[a].parent != spans[b].parent ? spans[a].parent < spans[b].parent
                                              : spans[a].start_ns < spans[b].start_ns;
  });

  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) out[i] = spans[i].end_ns - spans[i].start_ns;
  for (std::size_t k = 0; k < order.size();) {
    const Span& parent = spans[index_of[spans[order[k]].parent]];
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    std::size_t j = k;
    for (; j < order.size() && spans[order[j]].parent == spans[order[k]].parent; ++j) {
      // Clip to the parent; children sorted by start, so a gap closes a run.
      const std::int64_t a = std::max(spans[order[j]].start_ns, parent.start_ns);
      const std::int64_t b = std::min(spans[order[j]].end_ns, parent.end_ns);
      if (b <= a) continue;
      if (!open || a > run_end) {
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (open) covered += run_end - run_start;
    out[index_of[parent.id]] -= covered;
    k = j;
  }
  return out;
}

double pool_idle_share(double busy_seconds, int threads, double wall_seconds) {
  if (threads < 1 || wall_seconds <= 0.0) return 0.0;
  return 1.0 - busy_seconds / (static_cast<double>(threads) * wall_seconds);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

void sync_file_system(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

namespace {
std::atomic<std::uint64_t> g_next_instance{1};

/// The span enclosing the calling thread's current position, per log.
struct OpenScope {
  std::uint64_t instance = 0;
  std::uint32_t parent = 0;
  std::int32_t trial = -1;
};
thread_local OpenScope t_open;
}  // namespace

SpanLog::SpanLog()
    : instance_(g_next_instance.fetch_add(1)), origin_(Clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

SpanLog::Buffer& SpanLog::local_buffer() {
  thread_local std::uint64_t cached_instance = 0;
  thread_local Buffer* cached = nullptr;
  if (cached_instance != instance_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<int>(buffers_.size()) - 1;
    cached = buffers_.back().get();
    cached_instance = instance_;
  }
  return *cached;
}

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::int64_t trial) : log_(log) {
  if (log_ == nullptr) return;
  if (t_open.instance != log_->instance_) t_open = OpenScope{log_->instance_, 0, -1};
  span_.name = name;
  span_.id = log_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open.parent;
  span_.trial = trial >= 0 ? static_cast<std::int32_t>(trial) : t_open.trial;
  saved_parent_ = t_open.parent;
  saved_trial_ = t_open.trial;
  t_open.parent = span_.id;
  t_open.trial = span_.trial;
  span_.start_ns = log_->now_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  span_.end_ns = log_->now_ns();
  Buffer& buffer = log_->local_buffer();
  span_.thread = buffer.thread;
  buffer.spans.push_back(span_);
  t_open.parent = saved_parent_;
  t_open.trial = saved_trial_;
}

std::vector<Span> SpanLog::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const auto& buffer : buffers_) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans = {};
  }
  return out;
}

void write_spans_csv(const std::string& path, const std::vector<Span>& all, bool append) {
  const std::vector<std::int64_t> self = self_times(all);
  std::FILE* file = std::fopen(path.c_str(), append ? "a" : "w");
  if (file == nullptr) throw std::runtime_error("cannot write span log " + path);
  if (!append) std::fputs("name,id,parent,trial,thread,start_ns,end_ns,self_ns\n", file);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(file, "%s,%u,%u,%d,%d,%lld,%lld,%lld\n", s.name, s.id, s.parent, s.trial,
                 s.thread, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  const bool ok = std::fflush(file) == 0;
  if (std::fclose(file) != 0 || !ok) throw std::runtime_error("cannot write span log " + path);
}

SpanTotal total_of(const std::vector<Span>& spans, const std::string& name) {
  SpanTotal total;
  for (const Span& span : spans) {
    if (name == span.name) {
      total.ns += span.end_ns - span.start_ns;
      ++total.count;
    }
  }
  return total;
}

}  // namespace perfbench
