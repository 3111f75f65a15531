// serve_cache: an in-process netcons_serve stack (campaign::Scheduler over
// a fresh cache, serve::Api, serve::HttpServer on loopback with 2 HTTP
// workers and 1 job thread) driven by 2 closed-loop clients over
// serve::http_fetch. Most requests are cache hits (POST of the warm spec,
// GET of its summary, report or records); about one in twenty submits a
// fresh spec, polls it to completion and fetches its summary, so hits and
// the write path share the scheduler and the cache.
#include "measure.hpp"
#include "workloads.hpp"

#include "campaign/scheduler.hpp"
#include "campaign/seeds.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include <sched.h>

namespace perfbench {

namespace {

using namespace netcons;

/// The schedule is served in this many consecutive rounds, each by a
/// freshly started daemon over a fresh cache and by fresh client threads,
/// so every timed set-up also serves and one round's luck is a 24th of the
/// run. The luck that matters most is the client threads' heap: a
/// records fetch (a few MiB received into a growing string) takes either
/// ~0.6 ms, when the thread's malloc arena recycles the buffers, or
/// ~2-2.5 ms, when it page-faults them anew, and which of the two a thread
/// settles into depends on the arena it is handed. With the same threads
/// for the whole run, a run was fast or slow throughout (tail 1.2 or
/// 2.5-3.0 ms); fresh threads per round mix the two within a run (the
/// more rounds, the closer each run's mix is to the average), and the
/// tail over all ~58 000 requests (p99.9) lands in the slow mode's top in
/// every run.
constexpr int kRounds = 24;
constexpr int kRequestsPerClient = 1000 * kRounds;  ///< Schedule slots per client.
constexpr int kMissEvery = 20;  ///< Every 20th slot is a fresh spec.
constexpr const char* kHost = "127.0.0.1";
const char* const kArtifacts[] = {"summary", "report", "records"};

/// The CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restrict the calling thread (and the threads it creates from now on)
/// to `cpus`; a no-op for an empty list.
void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

/// Fixed thread placement: client i runs on client_cpus[i], and the daemon
/// (acceptor, HTTP workers, job thread) on the remaining CPUs. Left to the
/// OS scheduler, the placement of these six threads over 4 vCPUs varies
/// from process to process, and the median request latency with it
/// (0.051 ms in some processes, 0.065-0.072 ms in others).
struct Placement {
  std::vector<std::vector<int>> client_cpus;  ///< Empty: no pinning.
  std::vector<int> daemon_cpus;
};

Placement placement() {
  const std::vector<int> cpus = allowed_cpus();
  Placement out;
  if (cpus.size() < 2 * static_cast<std::size_t>(kThreads)) return out;
  for (int c = 0; c < kThreads; ++c) out.client_cpus.push_back({cpus[static_cast<std::size_t>(c)]});
  out.daemon_cpus.assign(cpus.begin() + kThreads, cpus.end());
  return out;
}

/// The warm-up campaign: its compacted records file is a few MiB.
std::string warm_spec(std::uint64_t seed) {
  return "{\"protocols\": [\"cycle-cover\", \"global-star\"], \"processes\": "
         "[\"one-way-epidemic\"], \"ns\": [16, 32], \"trials\": 2500, \"engines\": [\"census\"], "
         "\"seed\": " +
         std::to_string(campaign::stream_seed(seed, 0)) + "}";
}

/// A small fresh spec; every miss slot gets its own seed.
std::string miss_spec(std::uint64_t seed, std::uint64_t slot) {
  return "{\"protocols\": [\"cycle-cover\"], \"ns\": [16], \"trials\": 10, \"engines\": "
         "[\"census\"], \"seed\": " +
         std::to_string(campaign::stream_seed(seed, 1000 + slot)) + "}";
}

std::string id_of(const std::string& body) {
  const std::string marker = "\"id\": \"";
  const std::size_t at = body.find(marker);
  if (at == std::string::npos) throw std::runtime_error("response has no id: " + body);
  const std::size_t start = at + marker.size();
  return body.substr(start, body.find('"', start) - start);
}

/// One live daemon: torn down server first (members destroy in reverse).
struct Daemon {
  telemetry::Registry registry;
  std::unique_ptr<campaign::Scheduler> scheduler;
  std::unique_ptr<serve::Api> api;
  std::unique_ptr<serve::HttpServer> server;
  std::string warm_body;
  std::string warm_id;
  std::map<std::string, std::string> reference;  ///< target -> first fetch.
  int port = 0;

  Daemon(const std::string& cache_dir, std::uint64_t seed) {
    std::filesystem::remove_all(cache_dir);
    campaign::Scheduler::Options options;
    options.cache_dir = cache_dir;
    options.threads = 1;
    options.job_workers = 1;
    options.registry = &registry;
    scheduler = std::make_unique<campaign::Scheduler>(options);
    api = std::make_unique<serve::Api>(*scheduler, registry);
    serve::HttpServer::Options server_options;
    server_options.threads = kThreads;
    serve::Api* handler = api.get();
    server = std::make_unique<serve::HttpServer>(
        server_options, [handler](const serve::HttpRequest& r) { return handler->handle(r); });
    server->start();
    port = server->port();

    warm_body = warm_spec(seed);
    const serve::FetchResult submitted =
        serve::http_fetch(kHost, port, "POST", "/v1/campaigns", warm_body);
    if (submitted.status != 200 && submitted.status != 202) {
      throw std::runtime_error("warm-up submit answered " + std::to_string(submitted.status));
    }
    warm_id = id_of(submitted.body);
    const campaign::JobStatus status = scheduler->wait(warm_id);
    if (status.state != campaign::JobState::kDone) {
      throw std::runtime_error("warm-up campaign failed: " + status.error);
    }
    for (const char* name : kArtifacts) {
      const std::string target = "/v1/campaigns/" + warm_id + "/" + name;
      const serve::FetchResult fetched = serve::http_fetch(kHost, port, "GET", target);
      if (fetched.status != 200 || fetched.body.empty()) {
        throw std::runtime_error("warm-up fetch of " + target + " failed");
      }
      reference[target] = fetched.body;
    }
  }
  ~Daemon() { server->stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

/// One slot of a client's fixed schedule.
struct Slot {
  bool miss = false;
  std::string method;
  std::string target;
  std::string body;
};

std::vector<std::vector<Slot>> make_schedule(const Daemon& daemon, std::uint64_t seed) {
  std::vector<std::vector<Slot>> clients(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    Rng rng(campaign::stream_seed(seed, 100 + static_cast<std::uint64_t>(c)));
    for (int i = 0; i < kRequestsPerClient; ++i) {
      Slot slot;
      if (i % kMissEvery == kMissEvery - 1) {
        slot.miss = true;
        slot.method = "POST";
        slot.target = "/v1/campaigns";
        slot.body = miss_spec(seed, static_cast<std::uint64_t>(c * kRequestsPerClient + i));
      } else {
        const std::uint64_t kind = rng.below(4);
        if (kind == 0) {
          slot.method = "POST";
          slot.target = "/v1/campaigns";
          slot.body = daemon.warm_body;
        } else {
          slot.method = "GET";
          slot.target = "/v1/campaigns/" + daemon.warm_id + "/" + kArtifacts[kind - 1];
        }
      }
      clients[static_cast<std::size_t>(c)].push_back(std::move(slot));
    }
  }
  return clients;
}

/// What driving the schedule over HTTP produced.
struct Drive {
  std::vector<double> latency_ms;     ///< Every request.
  std::vector<double> hit_latency_ms; ///< Cache-hit slots only.
  std::vector<double> miss_ms;        ///< Submit until summary fetched.
  std::map<std::string, double> kind_ms;  ///< Client time per request kind.
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t response_bytes = 0;
  std::vector<std::string> violations;
  double wall_s = 0.0;
};

/// Serve slots [begin, end) of one client's schedule.
void drive_client(const Daemon& daemon, const std::vector<Slot>& slots, std::size_t begin,
                  std::size_t end, SpanLog* log, std::int64_t id_base, Drive& out,
                  std::vector<std::string>& miss_summaries) {
  const auto fetch = [&](const std::string& method, const std::string& target,
                         const std::string& body, std::int64_t id) {
    SpanLog::Scope span(log, "serve.request", id);
    const Clock::time_point start = Clock::now();
    serve::FetchResult result;
    try {
      result = serve::http_fetch(kHost, daemon.port, method, target, body);
    } catch (const std::exception& error) {
      result.status = 0;
      result.body = error.what();
    }
    const double ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    out.latency_ms.push_back(ms);
    ++out.requests;
    out.response_bytes += result.body.size();
    return std::make_pair(result, ms);
  };
  const auto violate = [&](const std::string& what) {
    ++out.failed;
    if (out.violations.size() < 3) out.violations.push_back(what);
  };

  for (std::size_t i = begin; i < end; ++i) {
    const Slot& slot = slots[i];
    const std::int64_t id = id_base + static_cast<std::int64_t>(i);
    if (!slot.miss) {
      auto [result, ms] = fetch(slot.method, slot.target, slot.body, id);
      out.hit_latency_ms.push_back(ms);
      out.kind_ms[slot.method == "POST" ? "post" : slot.target.substr(slot.target.rfind('/') + 1)] +=
          ms;
      if (slot.method == "POST") {
        if (result.status != 200 || result.body.find("\"cached\": true") == std::string::npos) {
          violate("cache-hit POST answered " + std::to_string(result.status) + " " +
                  result.body.substr(0, 120));
        }
      } else if (result.status != 200 || result.body != daemon.reference.at(slot.target)) {
        violate("GET " + slot.target + " differs from its first fetch");
      }
      continue;
    }
    SpanLog::Scope miss_span(log, "serve.miss", id);
    const Clock::time_point start = Clock::now();
    auto [submitted, submit_ms] = fetch(slot.method, slot.target, slot.body, id);
    if (submitted.status != 200 && submitted.status != 202) {
      violate("fresh submit answered " + std::to_string(submitted.status));
      continue;
    }
    std::string job;
    try {
      job = id_of(submitted.body);
    } catch (const std::exception& error) {
      violate(error.what());
      continue;
    }
    bool done = false;
    while (!done) {
      auto [polled, poll_ms] = fetch("GET", "/v1/campaigns/" + job, "", id);
      if (polled.status != 200 || polled.body.find("\"failed\"") != std::string::npos) {
        violate("poll of fresh job " + job + " answered " + std::to_string(polled.status));
        break;
      }
      done = polled.body.find("\"state\": \"done\"") != std::string::npos;
      if (!done) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!done) continue;
    auto [summary, summary_ms] = fetch("GET", "/v1/campaigns/" + job + "/summary", "", id);
    if (summary.status != 200 || summary.body.find("netcons-campaign") == std::string::npos) {
      violate("summary of fresh job " + job + " answered " + std::to_string(summary.status));
    }
    out.miss_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start).count());
    out.kind_ms["miss"] += out.miss_ms.back();
    miss_summaries[i] = std::move(summary.body);
  }
}

/// Fold `part` into `total` (walls add: rounds run one after another).
void absorb(Drive& total, Drive&& part) {
  total.latency_ms.insert(total.latency_ms.end(), part.latency_ms.begin(),
                          part.latency_ms.end());
  total.hit_latency_ms.insert(total.hit_latency_ms.end(), part.hit_latency_ms.begin(),
                              part.hit_latency_ms.end());
  total.miss_ms.insert(total.miss_ms.end(), part.miss_ms.begin(), part.miss_ms.end());
  for (const auto& [kind, ms] : part.kind_ms) total.kind_ms[kind] += ms;
  total.requests += part.requests;
  total.failed += part.failed;
  total.response_bytes += part.response_bytes;
  total.violations.insert(total.violations.end(), part.violations.begin(),
                          part.violations.end());
  total.wall_s += part.wall_s;
}

/// One round: both clients serve their share `round` of the schedule
/// against `daemon`. Fresh-job summaries land in `miss_summaries` (one
/// slot per schedule slot, per client).
Drive drive(const Daemon& daemon, const std::vector<std::vector<Slot>>& schedule, int round,
            const Placement& cpus, SpanLog* log,
            std::vector<std::vector<std::string>>& miss_summaries) {
  std::vector<Drive> per_client(schedule.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < schedule.size(); ++c) {
    const std::size_t size = schedule[c].size();
    const std::size_t begin = size * static_cast<std::size_t>(round) / kRounds;
    const std::size_t end = size * static_cast<std::size_t>(round + 1) / kRounds;
    clients.emplace_back([&, c, begin, end]() {
      if (!cpus.client_cpus.empty()) pin_current_thread(cpus.client_cpus[c]);
      drive_client(daemon, schedule[c], begin, end, log,
                   static_cast<std::int64_t>(c * schedule[c].size()), per_client[c],
                   miss_summaries[c]);
    });
  }
  for (std::thread& client : clients) client.join();
  Drive out;
  out.wall_s = seconds_between(start, Clock::now());
  for (Drive& d : per_client) absorb(out, std::move(d));
  return out;
}

/// Delete the run's caches once checked, so the next run does not start
/// while the file system is still freeing them.
void remove_caches(const std::filesystem::path& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_directory()) std::filesystem::remove_all(entry.path());
  }
}

double mean_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Every round of the schedule, each against a freshly started daemon.
struct Served {
  Drive total;                                ///< Walls summed over rounds.
  std::vector<double> setup_s;                ///< Start plus warm-up, per daemon.
  std::map<std::string, std::string> reference;  ///< First daemon's first fetches.
  /// Per client and slot: the fresh job's summary (empty for hits, which
  /// are checked against their daemon's first fetch instead).
  std::vector<std::vector<std::string>> miss_summaries;
  std::vector<std::vector<Slot>> schedule;
  std::unique_ptr<Daemon> last;  ///< The last round's daemon, still serving.
};

Served serve_rounds(const std::filesystem::path& dir, const std::string& prefix,
                    std::uint64_t seed, const Placement& cpus, SpanLog* log) {
  Served out;
  for (int r = 0; r < kRounds; ++r) {
    out.last.reset();
    if (r > 0) {
      // Untimed: drop the previous round's cache and commit the deletion,
      // so every round's fresh submits create their cache entries among a
      // round's worth of files. With all rounds' caches kept (~14 000
      // files by the last round), creating a file or directory on the
      // reference VM's ext4 slowed from ~5 us to ~200 us, and the fresh
      // submits with it, more so the later the round.
      std::filesystem::remove_all(dir / (prefix + std::to_string(r - 1)));
      sync_file_system(dir.string());
    }
    const Clock::time_point start = Clock::now();
    out.last = std::make_unique<Daemon>((dir / (prefix + std::to_string(r))).string(), seed);
    out.setup_s.push_back(seconds_between(start, Clock::now()));
    if (r == 0) {
      out.schedule = make_schedule(*out.last, seed);
      out.reference = out.last->reference;
      for (const auto& client : out.schedule) out.miss_summaries.emplace_back(client.size());
    } else if (out.last->reference != out.reference) {
      out.total.violations.push_back("daemons warmed with the same spec serve different bytes");
    }
    Drive round = drive(*out.last, out.schedule, r, cpus, log, out.miss_summaries);
    absorb(out.total, std::move(round));
  }
  return out;
}

}  // namespace

Result run_serve_workload(const Options& options) {
  Result result;
  const std::filesystem::path dir = std::filesystem::path(options.work_dir) / "serve_cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  sync_file_system(dir.string());
  // Daemon threads inherit the creating thread's CPUs.
  const Placement cpus = placement();
  pin_current_thread(cpus.daemon_cpus);
  reset_peak_rss();
  Served untraced = serve_rounds(dir, "cache-", options.seed, cpus, nullptr);
  untraced.last.reset();
  const double peak_mb = peak_rss_mb();
  const Drive& u = untraced.total;
  result.attempted = u.requests;
  result.failed = u.failed;
  result.violations = u.violations;

  if (!options.trace) {
    add_end_to_end(result, u.wall_s, u.requests, u.latency_ms, untraced.setup_s, peak_mb,
                   false);
    std::string split = "client time by request kind:";
    for (const auto& [kind, ms] : u.kind_ms) {
      split += " " + kind + " " + std::to_string(ms / 1e3) + " s";
    }
    result.notes.push_back(split);
    result.notes.push_back(std::to_string(u.miss_ms.size()) + " fresh submits, median " +
                           std::to_string(median_of(u.miss_ms)) + " ms to summary");
    remove_caches(dir);
    return result;
  }

  // ---- traced run: fresh daemons and caches, the same schedule -----------
  SpanLog log;
  Served traced = serve_rounds(dir, "traced-", options.seed, cpus, &log);
  const Drive& t = traced.total;
  if (traced.miss_summaries != untraced.miss_summaries ||
      traced.reference != untraced.reference) {
    result.violations.push_back("traced responses differ from the untraced run's");
  }
  result.violations.insert(result.violations.end(), t.violations.begin(), t.violations.end());

  // Api::handle on the same hit requests, with no sockets in between.
  std::atomic<std::uint64_t> handle_failures{0};
  std::vector<std::thread> replayers;
  for (std::size_t c = 0; c < traced.schedule.size(); ++c) {
    replayers.emplace_back([&, c]() {
      if (!cpus.client_cpus.empty()) pin_current_thread(cpus.client_cpus[c]);
      for (const Slot& slot : traced.schedule[c]) {
        if (slot.miss) continue;
        serve::HttpRequest request;
        request.method = slot.method;
        request.target = slot.target;
        request.path = slot.target;
        request.body = slot.body;
        SpanLog::Scope span(&log, "serve.handle");
        const serve::HttpResponse response = traced.last->api->handle(request);
        if (response.status != 200) handle_failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : replayers) thread.join();
  if (handle_failures.load() > 0) {
    result.violations.push_back(std::to_string(handle_failures.load()) +
                                " socket-free Api::handle calls did not answer 200");
  }

  const std::vector<Span> spans = log.take();
  write_spans_csv((dir / "spans.csv").string(), spans, false);
  const double handle_us = total_of(spans, "serve.handle").mean_us();
  emit_per_layer(
      result,
      {{"serve.handle_us", handle_us, ""},
       {"serve.http_us", mean_of(t.hit_latency_ms) * 1e3 - handle_us, ""},
       {"serve.bytes_per_response",
        t.requests ? static_cast<double>(t.response_bytes) / t.requests : 0.0, ""},
       {"serve.miss_ms", median_of(t.miss_ms), ""},
       {"trace.overhead_s", t.wall_s - u.wall_s, ""}});
  result.notes.push_back("untraced wall " + std::to_string(u.wall_s) + " s, traced wall " +
                         std::to_string(t.wall_s) + " s, " + std::to_string(spans.size()) +
                         " spans");
  traced.last.reset();
  remove_caches(dir);
  return result;
}

}  // namespace perfbench
