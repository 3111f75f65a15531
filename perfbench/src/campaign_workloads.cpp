// census_engine, fault_recovery and records_pipeline: fixed campaign grids
// run spec -> records -> summary -> report, the way netcons_campaign,
// netcons_merge and netcons_report chain them.
//
// Untraced run: campaign::run with RunOptions::on_trial streaming records;
// per-trial latency is the gap between consecutive on_trial callbacks on a
// worker thread. Traced run: the same (point, trial) slots driven through
// the library's public per-trial calls (instantiate_engine,
// run_until_stable_with_faults, World::output_graph, ProtocolSpec::target)
// on the campaign's own job pool, with a span around each call; its
// outcomes must equal the untraced ones slot for slot.
#include "measure.hpp"
#include "workloads.hpp"

#include "analysis/report.hpp"
#include "campaign/campaign.hpp"
#include "campaign/job_queue.hpp"
#include "campaign/json.hpp"
#include "campaign/registry.hpp"
#include "campaign/result_sink.hpp"
#include "campaign/seeds.hpp"
#include "campaign/trial_record.hpp"
#include "faults/fault_session.hpp"
#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

using namespace netcons;
using campaign::TrialOutcome;

/// One campaign grid of a workload (a workload may need several because a
/// CampaignSpec has one n axis and one trial count for all its units).
struct GridDecl {
  std::vector<std::string> protocols;
  std::vector<std::string> processes;
  std::vector<std::string> schedulers;
  std::vector<std::string> faults;
  std::vector<int> ns;
  int trials = 0;
  int threads = kThreads;  ///< Campaign worker threads for this grid.
};

// Trial counts are sized so each workload's fixed work takes 5-20 seconds
// on the reference machine, and so that trial latency's median and tail
// rank land inside a latency mode rather than on the boundary between
// two: see README.md.
std::vector<GridDecl> grids_of(const std::string& workload) {
  if (workload == "census_engine") {
    // n stops at 2^12 so each trial's dense edge bitsets stay near 1 MiB.
    // The trial counts place the median and the p95 rank inside latency
    // modes that hold still. Spanning-net is its own grid so it can run
    // more trials: 224 per scheduler put the median (rank 336 of 672) in
    // the middle of the spanning-net/proximity mode (~5.6 ms), below every
    // mode that moves. The cycle-cover/uniform mode, which held the median
    // with 144 spanning-net trials, read 9.9 ms in some sets of runs and
    // over 13.8 ms in others, above global-star/uniform, so the median
    // jumped between the two by 37%. With 672 trials the tail rung is p95
    // (33 beyond), in the lower half of the 48 simple-global-line/proximity
    // trials.
    const std::vector<std::string> schedulers = {"uniform", "proximity"};
    return {
        GridDecl{{"global-star", "cycle-cover"}, {}, schedulers, {}, {4096}, 32},
        GridDecl{{"spanning-net"}, {}, schedulers, {}, {4096}, 224},
        // Simple-Global-Line needs n^4..n^5 steps: 2^10 is already the
        // heaviest mode of the workload.
        GridDecl{{"simple-global-line"}, {}, schedulers, {}, {1024}, 48},
    };
  }
  if (workload == "fault_recovery") {
    // Every (protocol, fault plan) pair at n = 256, in three grids so the
    // trial counts can differ. Sorted, the modes are cycle-cover under
    // crash, reset and edge-burst (~1 ms), global-star under the same
    // three (one dense band from ~3 to ~8 ms) and both protocols under
    // edge-rate (~20-27 ms). With 24 + 1200 + 36 trials per point the
    // median (rank 1872 of 3744) lies in the middle of the global-star
    // band and the tail rung, p99 (37 beyond), in the middle of the 72
    // edge-rate trials. A rank in the sparse upper tail of the edge-rate
    // trials moved 2.5 times as much as the median trial between runs.
    const std::vector<std::string> steady = {"crash:k=1", "reset:k=1", "edge-burst:f=0.1"};
    return {
        GridDecl{{"cycle-cover"}, {}, {"uniform"}, steady, {256}, 24},
        GridDecl{{"global-star"}, {}, {"uniform"}, steady, {256}, 1200},
        GridDecl{{"cycle-cover", "global-star"}, {}, {"uniform"}, {"edge-rate:p=1e-4"}, {256}, 36},
    };
  }
  if (workload == "records_pipeline") {
    // More than 4096 trials per point: RunningStats is past its P^2 switch.
    // The four light units run twelve times with twelve derived seeds
    // rather than as one grid twelve times larger, so the pipeline's
    // memory is one grid's record set. Global-star, by far the slowest
    // unit here (~12 and ~30 us per trial at n = 16 and 32), runs once
    // with 4800 trials per point: the tail rung, p99.9 (~1160 beyond of
    // 1 161 600), then lies in the body of its n = 32 trials (about their
    // p76), not in their top 1%, which any host hiccup on a ~30 us trial
    // also reaches. One worker thread: with two, the microsecond trial
    // gaps also timed the other worker's hold on the shared record sink
    // and its SMT sibling, and their median moved by up to 30% between
    // runs.
    const GridDecl light{{"cycle-cover", "spanning-net"},
                         {"one-way-epidemic", "meet-everybody"},
                         {"uniform"},
                         {},
                         {16, 32},
                         12000,
                         1};
    std::vector<GridDecl> grids(12, light);
    grids.push_back(GridDecl{{"global-star"}, {}, {"uniform"}, {}, {16, 32}, 4800, 1});
    return grids;
  }
  return {};
}

/// A grid point with the live spec objects behind it.
struct LivePoint {
  const campaign::Unit* unit = nullptr;
  const campaign::SchedulerOption* scheduler = nullptr;
  const faults::FaultPlan* plan = nullptr;
  const campaign::EngineOption* engine = nullptr;
  int n = 0;
};

/// A grid ready to run: spec, expanded grid, live points and an open sink.
struct Prepared {
  campaign::CampaignSpec spec;
  std::vector<campaign::GridPoint> grid;
  std::vector<LivePoint> live;
  campaign::CampaignHeader header;
  std::unique_ptr<campaign::TrialRecordSink> sink;
  int threads = kThreads;
};

const Protocol& protocol_of(const campaign::Unit& unit) {
  return std::holds_alternative<ProtocolSpec>(unit.spec)
             ? std::get<ProtocolSpec>(unit.spec).protocol
             : std::get<ProcessSpec>(unit.spec).protocol;
}

void initialize(const campaign::Unit& unit, Engine& engine) {
  if (const auto* spec = std::get_if<ProtocolSpec>(&unit.spec)) {
    if (spec->initialize) spec->initialize(engine.mutable_world());
  } else if (const auto& init = std::get<ProcessSpec>(unit.spec).initialize) {
    init(engine.mutable_world());
  }
}

/// Grid expansion plus factory and sink set-up: what setup_s times. The
/// factory set-up builds every point's engine once, through the engine and
/// scheduler factories each trial calls (for proximity points that is the
/// placement and the alias tables), so a point that cannot be built fails
/// before any trial is timed.
Prepared prepare(const GridDecl& decl, std::uint64_t base_seed, const std::string& records) {
  Prepared out;
  campaign::CampaignSpec& spec = out.spec;
  for (const std::string& name : decl.protocols) {
    auto protocol = campaign::make_protocol(name);
    if (!protocol) throw std::runtime_error("unknown protocol " + name);
    spec.units.push_back(campaign::Unit::protocol(name, std::move(*protocol)));
  }
  for (const std::string& name : decl.processes) {
    auto process = campaign::make_process(name);
    if (!process) throw std::runtime_error("unknown process " + name);
    spec.units.push_back(campaign::Unit::process(name, std::move(*process)));
  }
  for (const std::string& name : decl.schedulers) {
    std::string error;
    auto option = campaign::make_scheduler(name, &error);
    if (!option) throw std::runtime_error("bad scheduler " + name + ": " + error);
    spec.schedulers.push_back(std::move(*option));
  }
  for (const std::string& name : decl.faults) {
    std::string error;
    auto plan = campaign::make_fault_plan(name, &error);
    if (!plan) throw std::runtime_error("bad fault plan " + name + ": " + error);
    spec.faults.push_back(std::move(*plan));
  }
  auto census = campaign::make_engine("census");
  if (!census) throw std::runtime_error("census engine not registered");
  spec.engines.push_back(std::move(*census));
  spec.ns = decl.ns;
  spec.trials = decl.trials;
  spec.base_seed = base_seed;
  check_step_budgets(spec);
  out.threads = decl.threads;

  out.grid = campaign::expand_grid(spec);
  // The documented expansion order: unit, scheduler, fault plan, engine, n.
  static const faults::FaultPlan kNone{};
  for (const auto& unit : spec.units) {
    for (const auto& scheduler : spec.schedulers) {
      const std::size_t plans = std::max<std::size_t>(spec.faults.size(), 1);
      for (std::size_t f = 0; f < plans; ++f) {
        for (const auto& engine : spec.engines) {
          for (const int n : spec.ns) {
            const faults::FaultPlan* plan = spec.faults.empty() ? &kNone : &spec.faults[f];
            out.live.push_back(LivePoint{&unit, &scheduler, plan, &engine, n});
          }
        }
      }
    }
  }
  for (std::size_t p = 0; p < out.grid.size(); ++p) {
    if (out.grid[p].unit != out.live[p].unit->name || out.grid[p].n != out.live[p].n ||
        out.grid[p].scheduler != out.live[p].scheduler->name) {
      throw std::logic_error("grid expansion order changed");
    }
  }
  for (std::size_t p = 0; p < out.live.size(); ++p) {
    const LivePoint& point = out.live[p];
    const std::unique_ptr<Engine> engine = campaign::instantiate_engine(
        point.engine->make, protocol_of(*point.unit), point.n,
        campaign::SeedStream(out.grid[p].seed).at(0), point.scheduler->make);
    initialize(*point.unit, *engine);
  }
  out.header = campaign::CampaignHeader::describe(spec);
  out.sink = std::make_unique<campaign::TrialRecordSink>(records, out.header);
  return out;
}

/// A trial of the untraced pass that failed its check.
struct Failure {
  std::size_t point = 0;
  int trial = 0;
  std::string error;
};

/// What one pipeline pass (untraced or traced) produced.
struct Pass {
  /// Per point and trial. The untraced pass keeps them only when a traced
  /// pass is compared against it; its checks need just `checked`.
  std::vector<std::vector<TrialOutcome>> outcomes;
  /// Per slot (untraced pass): 0 never reported, 1 passed its check, 2 failed.
  std::vector<std::uint8_t> checked;
  std::vector<Failure> failures;
  std::vector<double> latency_ms;  ///< Per slot (untraced pass only).
  std::string summary;             ///< to_json of the run's result.
  std::string rebuilt;             ///< to_json rebuilt from the records.
  std::string report;
  double wall_s = 0.0;
  double pool_wall_s = 0.0;  ///< Trial phase only (traced pass).
};

std::vector<std::vector<TrialOutcome>> sized(const Prepared& prepared) {
  return std::vector<std::vector<TrialOutcome>>(
      prepared.grid.size(),
      std::vector<TrialOutcome>(static_cast<std::size_t>(prepared.spec.trials)));
}

/// records -> summary (the netcons_merge path) and records -> report (the
/// netcons_report path), each span-wrapped when `log` is set.
void finish_artifacts(Prepared& prepared, SpanLog* log, Pass& pass) {
  const std::string path = prepared.sink->path();
  prepared.sink.reset();  // close the file
  campaign::LoadedRecords loaded;
  {
    SpanLog::Scope span(log, "campaign.load_records");
    campaign::load_records(path, loaded);
  }
  auto slots = sized(prepared);
  for (const auto& [key, outcome] : loaded.outcomes) {
    slots[key.first][static_cast<std::size_t>(key.second)] = outcome;
  }
  {
    SpanLog::Scope span(log, "campaign.reduce");
    const campaign::CampaignResult reduced =
        campaign::reduce_outcomes(loaded.header->points, loaded.header->trials, slots);
    pass.rebuilt = campaign::to_json(reduced);
  }
  std::optional<analysis::RecordDistributionBuilder> builder;
  {
    SpanLog::Scope span(log, "analysis.load");
    builder.emplace(analysis::load_distributions({path}));
  }
  std::vector<analysis::PointDistributions> dists;
  {
    SpanLog::Scope span(log, "analysis.build");
    dists = builder->build();
  }
  SpanLog::Scope span(log, "analysis.report");
  pass.report = analysis::report_json(*builder, dists, analysis::default_report_spec());
}

/// Whether a trial passed: every faulted trial re-stabilizes, every
/// fault-free one succeeds with its target graph.
bool trial_ok(const campaign::GridPoint& point, const TrialOutcome& outcome) {
  return point.faulted ? outcome.success : outcome.success && outcome.target_ok;
}

Pass run_untraced(Prepared& prepared, bool keep_outcomes) {
  static std::atomic<std::uint64_t> next_run{1};
  const std::uint64_t run_id = next_run.fetch_add(1);
  Pass pass;
  if (keep_outcomes) pass.outcomes = sized(prepared);
  const std::size_t trials = static_cast<std::size_t>(prepared.spec.trials);
  pass.latency_ms.assign(prepared.grid.size() * trials, 0.0);
  pass.checked.assign(prepared.grid.size() * trials, 0);
  std::mutex failures_mutex;

  campaign::TrialRecordSink& sink = *prepared.sink;
  const Clock::time_point start = Clock::now();
  campaign::RunOptions options;
  options.threads = prepared.threads;
  options.on_trial = [&](std::size_t point, int trial, std::uint64_t seed,
                         const TrialOutcome& outcome) {
    struct Stamp {
      std::uint64_t run = 0;
      Clock::time_point last;
    };
    thread_local Stamp stamp;
    const Clock::time_point now = Clock::now();
    if (stamp.run != run_id) stamp = Stamp{run_id, start};
    const std::size_t slot = point * trials + static_cast<std::size_t>(trial);
    pass.latency_ms[slot] = std::chrono::duration<double, std::milli>(now - stamp.last).count();
    stamp.last = now;
    const bool ok = trial_ok(prepared.grid[point], outcome);
    pass.checked[slot] = ok ? 1 : 2;
    if (!ok) {
      const std::lock_guard<std::mutex> lock(failures_mutex);
      pass.failures.push_back(Failure{point, trial, outcome.error});
    }
    if (keep_outcomes) pass.outcomes[point][static_cast<std::size_t>(trial)] = outcome;
    sink.write(campaign::TrialRecord{point, trial, seed, outcome});
  };
  const campaign::CampaignResult result = campaign::run(prepared.spec, options);
  pass.summary = campaign::to_json(result);
  finish_artifacts(prepared, nullptr, pass);
  pass.wall_s = seconds_between(start, Clock::now());
  return pass;
}

/// One protocol or process trial through the library's public calls, the
/// same sequence campaign::run_protocol_trial / run_process_trial perform,
/// with a span around each layer.
TrialOutcome traced_trial(const LivePoint& point, std::uint64_t seed, SpanLog& log) {
  TrialOutcome outcome;
  try {
    const campaign::SchedulerFactory& make = point.scheduler->make;
    campaign::SchedulerFactory timed_make;
    if (make) {
      timed_make = [&make, &log]() {
        SpanLog::Scope span(&log, "sched.factory");
        return make();
      };
    }
    std::unique_ptr<Engine> engine;
    {
      SpanLog::Scope span(&log, "core.setup");
      engine = campaign::instantiate_engine(point.engine->make, protocol_of(*point.unit), point.n,
                                            seed, timed_make);
      initialize(*point.unit, *engine);
    }
    const faults::FaultPlan& plan = *point.plan;
    faults::FaultSession session(plan, seed);

    if (const auto* spec = std::get_if<ProtocolSpec>(&point.unit->spec)) {
      Engine::StabilityOptions options;
      if (spec->max_steps) options.max_steps = spec->max_steps(point.n);
      options.certificate = spec->certificate;
      ConvergenceReport report;
      {
        SpanLog::Scope span(&log, "core.run");
        report = faults::run_until_stable_with_faults(*engine, session, options);
      }
      bool target_ok = report.stabilized;
      if (report.stabilized && spec->target) {
        std::optional<Graph> graph;
        {
          SpanLog::Scope span(&log, "graph.output_graph");
          graph.emplace(engine->world().output_graph(spec->protocol));
        }
        SpanLog::Scope span(&log, "graph.verify");
        target_ok = spec->target(*graph);
      }
      outcome.value = report.convergence_step;
      outcome.steps_executed = report.steps_executed;
      outcome.target_ok = target_ok;
      outcome.faults_injected = report.faults_injected;
      outcome.recovery_steps = report.recovery_steps;
      outcome.edges_deleted = report.output_edges_deleted;
      outcome.edges_repaired = report.output_edges_repaired;
      outcome.edges_residual = report.output_edges_residual;
      outcome.success = plan.empty() ? report.stabilized && target_ok : report.stabilized;
    } else {
      const ProcessSpec& process = std::get<ProcessSpec>(point.unit->spec);
      std::optional<std::uint64_t> finished;
      {
        SpanLog::Scope span(&log, "core.run");
        if (!plan.empty()) {
          (void)session.fire_on_stabilization(*engine);
          engine->set_interceptor(&session);
        }
        finished = engine->run_until(process.done, process_step_budget(process, point.n));
        engine->set_interceptor(nullptr);
      }
      outcome.steps_executed = engine->steps();
      outcome.faults_injected = session.faults_injected();
      if (outcome.faults_injected > 0) {
        const std::uint64_t final_edges =
            faults::output_edge_count(engine->protocol(), engine->world());
        const std::uint64_t after = session.output_edges_after_damage();
        const std::uint64_t rebuilt = final_edges > after ? final_edges - after : 0;
        outcome.edges_deleted = session.output_edges_deleted();
        outcome.edges_repaired = std::min(rebuilt, outcome.edges_deleted);
        outcome.edges_residual = outcome.edges_deleted - outcome.edges_repaired;
      }
      if (finished) {
        outcome.success = true;
        outcome.target_ok = true;
        outcome.value = *finished;
        if (outcome.faults_injected > 0 && *finished > session.last_fault_step()) {
          outcome.recovery_steps = *finished - session.last_fault_step();
        }
      }
    }
    if (telemetry::Registry* registry = telemetry::registry()) engine->publish_metrics(*registry);
  } catch (const std::bad_alloc&) {
    throw;
  } catch (const std::exception& error) {
    outcome.success = false;
    outcome.error = error.what();
  }
  return outcome;
}

Pass run_traced(Prepared& prepared, SpanLog& log, std::int64_t trial_offset) {
  Pass pass;
  pass.outcomes = sized(prepared);
  const int trials = prepared.spec.trials;
  struct Task {
    std::size_t point;
    int trial;
  };
  std::vector<Task> tasks;
  for (std::size_t p = 0; p < prepared.grid.size(); ++p) {
    for (int t = 0; t < trials; ++t) tasks.push_back(Task{p, t});
  }
  // The campaign engine's default chunking (campaign.cpp): ~8 jobs per
  // worker, 1..64 trials each.
  const std::size_t shard = std::clamp<std::size_t>(
      tasks.size() / (static_cast<std::size_t>(prepared.threads) * 8), 1, 64);
  const std::size_t jobs = (tasks.size() + shard - 1) / shard;

  campaign::TrialRecordSink& sink = *prepared.sink;
  const Clock::time_point start = Clock::now();
  campaign::run_jobs(jobs, prepared.threads, [&](std::size_t job) {
    const std::size_t end = std::min(tasks.size(), (job + 1) * shard);
    for (std::size_t i = job * shard; i < end; ++i) {
      const Task& task = tasks[i];
      const std::uint64_t seed = campaign::SeedStream(prepared.grid[task.point].seed)
                                     .at(static_cast<std::uint64_t>(task.trial));
      SpanLog::Scope span(&log, "trial",
                          trial_offset + static_cast<std::int64_t>(task.point) * trials +
                              task.trial);
      TrialOutcome outcome = traced_trial(prepared.live[task.point], seed, log);
      {
        SpanLog::Scope write(&log, "campaign.record_write");
        sink.write(campaign::TrialRecord{task.point, task.trial, seed, outcome});
      }
      pass.outcomes[task.point][static_cast<std::size_t>(task.trial)] = std::move(outcome);
    }
  });
  pass.pool_wall_s = seconds_between(start, Clock::now());
  // The summary a campaign::run of these outcomes reduces to.
  const campaign::CampaignResult result =
      campaign::reduce_outcomes(prepared.grid, trials, pass.outcomes);
  pass.summary = campaign::to_json(result);
  finish_artifacts(prepared, &log, pass);
  pass.wall_s = seconds_between(start, Clock::now());
  return pass;
}

bool same_outcome(const TrialOutcome& a, const TrialOutcome& b) {
  return a.success == b.success && a.value == b.value && a.steps_executed == b.steps_executed &&
         a.error == b.error && a.target_ok == b.target_ok &&
         a.faults_injected == b.faults_injected && a.recovery_steps == b.recovery_steps &&
         a.edges_deleted == b.edges_deleted && a.edges_repaired == b.edges_repaired &&
         a.edges_residual == b.edges_residual;
}

/// The invariants every untraced pass must satisfy.
void check_pass(const Prepared& prepared, const Pass& pass, Result& result) {
  if (pass.rebuilt != pass.summary) {
    result.violations.push_back("summary rebuilt from the records differs from the run's");
  }
  const auto report = campaign::json::parse(pass.report).as_object();
  const auto& points = campaign::json::field(report, "points").as_array();
  if (points.size() != prepared.grid.size()) {
    result.violations.push_back("report has " + std::to_string(points.size()) +
                                " points, grid has " + std::to_string(prepared.grid.size()));
  }
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (const auto& metric :
         campaign::json::field(points[p].as_object(), "metrics").as_array()) {
      const auto& m = metric.as_object();
      if (campaign::json::field(m, "metric").as_string() != "steps_executed") continue;
      const std::uint64_t count = campaign::json::field(m, "count").as_u64();
      if (count != static_cast<std::uint64_t>(prepared.spec.trials)) {
        result.violations.push_back("report point " + std::to_string(p) + " counts " +
                                    std::to_string(count) + " trials, expected " +
                                    std::to_string(prepared.spec.trials));
      }
    }
  }
  for (const std::uint8_t checked : pass.checked) {
    ++result.attempted;
    if (checked != 1) ++result.failed;
  }
  const std::size_t unreported =
      static_cast<std::size_t>(std::count(pass.checked.begin(), pass.checked.end(), 0));
  if (unreported > 0) {
    result.violations.push_back(std::to_string(unreported) + " trials never reported back");
  }
  for (std::size_t i = 0; i < pass.failures.size() && i < 3; ++i) {
    const Failure& f = pass.failures[i];
    const campaign::GridPoint& point = prepared.grid[f.point];
    result.violations.push_back(
        point.unit + " n=" + std::to_string(point.n) + " " + point.faults + " trial " +
        std::to_string(f.trial) +
        (point.faulted ? " did not re-stabilize" : " did not reach its target") +
        (f.error.empty() ? "" : ": " + f.error));
  }
}

std::string fault_verb(const std::string& plan) { return plan.substr(0, plan.find(':')); }

/// Delete the run's record files once they are checked, so the next run
/// does not start while the file system is still freeing them.
void remove_records(const std::filesystem::path& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".jsonl") std::filesystem::remove(entry.path());
  }
}

/// The traced passes of a workload's grids, added up.
struct Traced {
  SpanLog log;
  telemetry::Registry registry;
  double wall_s = 0.0;
  double pool_wall_s = 0.0;
  std::uint64_t record_bytes = 0;
  std::int64_t offset = 0;                    ///< Trial id of the next grid's first slot.
  std::map<std::string, SpanTotal> totals;    ///< By span name, all grids.
  std::map<std::string, SpanTotal> per_verb;  ///< Trial spans by fault verb.
  double trial_self_ns = 0.0;
};

/// Run one grid traced into its own record file (deleted once measured),
/// check it slot for slot against the grid's untraced pass, and fold its
/// spans into `traced`.
/// The spans are handed over before the next grid (outside every timed
/// interval), so memory holds one grid's spans, not the workload's.
void trace_grid(const GridDecl& decl, std::uint64_t base_seed, const std::string& records,
                const std::filesystem::path& spans_csv, bool append, const Pass& reference,
                Traced& traced, Result& result) {
  Prepared prep = prepare(decl, base_seed, records);
  const std::size_t header_bytes = campaign::header_line(prep.header).size() + 1;
  telemetry::set_registry(&traced.registry);
  Pass pass = run_traced(prep, traced.log, traced.offset);
  telemetry::set_registry(nullptr);
  traced.wall_s += pass.wall_s;
  traced.pool_wall_s += pass.pool_wall_s;
  traced.record_bytes += std::filesystem::file_size(records) - header_bytes;
  std::filesystem::remove(records);

  std::size_t mismatches = 0;
  for (std::size_t p = 0; p < pass.outcomes.size(); ++p) {
    for (std::size_t t = 0; t < pass.outcomes[p].size(); ++t) {
      if (!same_outcome(pass.outcomes[p][t], reference.outcomes[p][t])) ++mismatches;
    }
  }
  if (mismatches > 0) {
    result.violations.push_back(std::to_string(mismatches) +
                                " traced trial outcomes differ from the untraced run");
  }
  if (pass.summary != reference.summary || pass.rebuilt != reference.rebuilt ||
      pass.report != reference.report) {
    result.violations.push_back("traced artifacts differ from the untraced run's");
  }

  const std::vector<Span> spans = traced.log.take();
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    SpanTotal& total = traced.totals[span.name];
    total.ns += span.end_ns - span.start_ns;
    ++total.count;
    if (std::strcmp(span.name, "trial") != 0) continue;
    traced.trial_self_ns += static_cast<double>(self[i]);
    const std::size_t point = static_cast<std::size_t>(span.trial - traced.offset) /
                              static_cast<std::size_t>(decl.trials);
    if (!prep.grid[point].faulted) continue;
    SpanTotal& verb = traced.per_verb[fault_verb(prep.grid[point].faults)];
    verb.ns += span.end_ns - span.start_ns;
    ++verb.count;
  }
  write_spans_csv(spans_csv.string(), spans, append);
  traced.offset += static_cast<std::int64_t>(prep.grid.size()) * prep.spec.trials;
}

}  // namespace

void check_step_budgets(const netcons::campaign::CampaignSpec& spec) {
  using namespace netcons;
  for (const campaign::Unit& unit : spec.units) {
    for (const int n : spec.ns) {
      if (n < 2) continue;
      std::uint64_t at_n = 0;
      std::uint64_t at_half = 0;
      if (const auto* protocol = std::get_if<ProtocolSpec>(&unit.spec)) {
        if (!protocol->max_steps) continue;
        at_n = protocol->max_steps(n);
        at_half = protocol->max_steps(n / 2);
      } else {
        const auto& process = std::get<ProcessSpec>(unit.spec);
        at_n = process_step_budget(process, n);
        at_half = process_step_budget(process, n / 2);
      }
      if (at_n < at_half) {
        throw std::runtime_error("step budget of " + unit.name + " at n = " +
                                 std::to_string(n) + " (" + std::to_string(at_n) +
                                 ") is below its budget at n = " + std::to_string(n / 2) + " (" +
                                 std::to_string(at_half) + "): the budget overflowed");
      }
    }
  }
}

bool is_campaign_workload(const std::string& name) { return !grids_of(name).empty(); }

Result run_campaign_workload(const Options& options) {
  Result result;
  const std::vector<GridDecl> decls = grids_of(options.workload);
  const std::filesystem::path dir = std::filesystem::path(options.work_dir) / options.workload;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto records_path = [&dir](const char* kind, std::size_t g) {
    return (dir / (kind + std::to_string(g) + ".jsonl")).string();
  };
  const auto base_seed = [&options](std::size_t g) {
    return campaign::stream_seed(options.seed, g);
  };

  // The set-up of every grid, timed, done kSetupRepeats times before the
  // run into fresh record files (as a real run creates one: re-truncating a
  // written file makes ext4 flush it, a cost no real set-up pays). The run
  // uses the last; setup_s is the median. When the first set-up took
  // under kPauseBelow, each repeat after it starts after a pause, so it
  // runs about as cold as a set-up at process start does and the samples
  // span a second of the machine's load, not a millisecond: back to back,
  // the warm 10-80 us set-ups of fault_recovery and records_pipeline read
  // 11 or 18 us, and 75 or 140 us, by process. A longer set-up
  // (census_engine's proximity tables, ~15 ms) repeats back to back: after
  // pauses its median read 21.1 ms in one ten-run set and 15.6 ms in the
  // next, where the median trial moved 9%; back to back it read
  // 15.2-15.5 ms in twenty processes.
  constexpr int kSetupRepeats = 21;
  constexpr std::chrono::milliseconds kSetupPause{50};
  constexpr double kPauseBelow = 5e-3;  // seconds
  sync_file_system(dir.string());
  reset_peak_rss();
  std::vector<double> setup_s;
  std::vector<Prepared> prepared;
  for (int r = 0; r < kSetupRepeats; ++r) {
    prepared.clear();
    remove_records(dir);
    if (r > 0 && setup_s.front() < kPauseBelow) std::this_thread::sleep_for(kSetupPause);
    const Clock::time_point start = Clock::now();
    for (std::size_t g = 0; g < decls.size(); ++g) {
      prepared.push_back(prepare(decls[g], base_seed(g), records_path("untraced-", g)));
    }
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  // Grid by grid: run, check, keep the latencies and drop the rest, so the
  // benchmark's own bookkeeping is 9 bytes per trial, not an outcome per
  // trial. A traced run traces each grid right after its untraced pass,
  // against that pass's outcomes.
  std::size_t slots = 0;
  for (const Prepared& p : prepared) {
    slots += p.grid.size() * static_cast<std::size_t>(p.spec.trials);
  }
  std::vector<double> latency_ms;
  latency_ms.reserve(slots);
  double wall_s = 0.0;
  std::unique_ptr<Traced> traced = options.trace ? std::make_unique<Traced>() : nullptr;
  for (std::size_t g = 0; g < prepared.size(); ++g) {
    const Pass pass = run_untraced(prepared[g], options.trace);
    wall_s += pass.wall_s;
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(), pass.latency_ms.end());
    check_pass(prepared[g], pass, result);
    if (traced) {
      trace_grid(decls[g], base_seed(g), records_path("traced-", g), dir / "spans.csv", g > 0,
                 pass, *traced, result);
    }
  }
  const double peak_mb = peak_rss_mb();
  prepared.clear();
  remove_records(dir);

  if (!traced) {
    add_end_to_end(result, wall_s, result.attempted, std::move(latency_ms), std::move(setup_s),
                   peak_mb, options.workload == "census_engine");
    return result;
  }

  const SpanTotal trial = traced->totals["trial"];
  const SpanTotal run = traced->totals["core.run"];
  const SpanTotal output_graph = traced->totals["graph.output_graph"];
  const SpanTotal verify = traced->totals["graph.verify"];
  const auto counter = [&traced](const char* name) {
    return static_cast<double>(traced->registry.counter(name).value());
  };
  const double steps = counter("engine.steps");
  const double effective = counter("engine.effective_steps");
  const double weighted = counter("census.weighted_samples");
  const double rejects = counter("census.weighted_rejects");
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::map<std::string, SpanTotal>& totals = traced->totals;
  std::map<std::string, SpanTotal>& per_verb = traced->per_verb;

  // Self time of the trial span: what the trial costs outside every layer
  // the benchmark wraps (fault-session set-up, metric publishing, slot
  // bookkeeping).
  result.notes.push_back(
      "trial self time (outside wrapped layers): " +
      std::to_string(trial.count ? traced->trial_self_ns / 1e3 / trial.count : 0.0) +
      " us/trial over " + std::to_string(trial.count) + " trials");

  emit_per_layer(
      result,
      {{"core.setup_us", totals["core.setup"].mean_us(), ""},
       {"core.run_ms", run.mean_ms(), ""},
       {"core.ns_per_effective", ratio(static_cast<double>(run.ns), effective), ""},
       {"core.effective_ratio", ratio(effective, steps), ""},
       // census.fallback is published at most once per trial (at engine
       // construction or when the fault interceptor is installed), so the
       // counter is the number of trials that fell back.
       {"core.fallback_trials", counter("census.fallback"), ""},
       {"sched.factory_us", totals["sched.factory"].mean_us(), ""},
       {"sched.weighted_accept_ratio", ratio(weighted, weighted + rejects), ""},
       {"graph.output_graph_ms", output_graph.mean_ms(), ""},
       {"graph.verify_ms", verify.mean_ms(), ""},
       {"graph.verify_share",
        ratio(static_cast<double>(output_graph.ns + verify.ns), static_cast<double>(trial.ns)),
        ""},
       {"faults.trial_ms.crash", per_verb["crash"].mean_ms(), ""},
       {"faults.trial_ms.reset", per_verb["reset"].mean_ms(), ""},
       {"faults.trial_ms.edge-burst", per_verb["edge-burst"].mean_ms(), ""},
       {"faults.trial_ms.edge-rate", per_verb["edge-rate"].mean_ms(), ""},
       {"campaign.record_write_us", totals["campaign.record_write"].mean_us(), ""},
       {"campaign.record_bytes", ratio(static_cast<double>(traced->record_bytes), trial.count),
        ""},
       {"campaign.pool_idle_share",
        pool_idle_share(static_cast<double>(trial.ns) / 1e9, decls.front().threads,
                        traced->pool_wall_s),
        ""},
       {"campaign.reduce_ms", totals["campaign.reduce"].mean_ms(), ""},
       {"analysis.load_ms", totals["analysis.load"].mean_ms(), ""},
       {"analysis.report_ms", totals["analysis.report"].mean_ms(), ""},
       {"trace.overhead_s", traced->wall_s - wall_s, ""}});
  result.notes.push_back("untraced wall " + std::to_string(wall_s) + " s, traced wall " +
                         std::to_string(traced->wall_s) + " s");
  remove_records(dir);
  return result;
}

}  // namespace perfbench
