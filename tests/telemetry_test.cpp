#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/max_fair_clique.h"
#include "obs/event_journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/graph_registry.h"
#include "service/query_executor.h"
#include "service/result_cache.h"
#include "service/telemetry.h"
#include "service/wire.h"
#include "test_util.h"

namespace fairclique {
namespace {

using testing_util::MakeGraph;
using testing_util::RandomAttributedGraph;

std::shared_ptr<const RegisteredGraph> RegisterGraph(GraphRegistry& registry,
                                                     const std::string& name,
                                                     AttributedGraph g) {
  EXPECT_TRUE(registry.Add(name, std::move(g)).ok());
  return registry.Get(name);
}

/// Structural validator for Prometheus text exposition 0.0.4: every sample
/// line parses as `name[{labels}] value`, every TYPE is known and declared
/// once per family, every sample belongs to a declared family (histogram
/// samples via their _bucket/_sum/_count suffix), and histogram bucket
/// series are cumulative and end at le="+Inf" == the family _count.
::testing::AssertionResult ValidExposition(const std::string& text) {
  if (text.empty() || text.back() != '\n') {
    return ::testing::AssertionFailure() << "must end with a newline";
  }
  std::istringstream in(text);
  std::string line;
  std::map<std::string, std::string> types;  // family -> declared TYPE
  std::string cur_hist;       // histogram family currently being walked
  long long prev_bucket = -1; // last cumulative bucket count seen
  long long inf_count = -1;   // the family's +Inf bucket
  bool saw_eof = false;
  while (std::getline(in, line)) {
    if (line.empty()) return ::testing::AssertionFailure() << "blank line";
    if (line == "# EOF") {
      saw_eof = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.rfind(' ');
      const std::string type = line.substr(sp + 1);
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return ::testing::AssertionFailure() << "unknown type: " << line;
      }
      const std::string family = line.substr(7, sp - 7);
      if (!types.emplace(family, type).second) {
        return ::testing::AssertionFailure() << "second # TYPE: " << line;
      }
      if (type == "histogram") {
        cur_hist = family;
        prev_bucket = -1;
        inf_count = -1;
      }
      continue;
    }
    if (line[0] == '#') continue;  // HELP
    // Sample line: name or name{label="..."} then one space then the value.
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp + 1 >= line.size()) {
      return ::testing::AssertionFailure() << "unparsable sample: " << line;
    }
    char* end = nullptr;
    const std::string value = line.substr(sp + 1);
    std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return ::testing::AssertionFailure() << "bad value in: " << line;
    }
    // The sample's family is its name, or a histogram's name less the
    // _bucket/_sum/_count suffix.
    const std::string name = line.substr(0, line.find_first_of("{ "));
    bool typed = types.count(name) > 0;
    for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
      if (!typed && name.ends_with(suffix)) {
        const auto it = types.find(name.substr(0, name.size() - suffix.size()));
        typed = it != types.end() && it->second == "histogram";
      }
    }
    if (!typed) {
      return ::testing::AssertionFailure() << "sample without # TYPE: " << line;
    }
    if (!cur_hist.empty() && line.rfind(cur_hist + "_bucket{le=\"", 0) == 0) {
      const long long count = std::atoll(value.c_str());
      if (count < prev_bucket) {
        return ::testing::AssertionFailure()
               << "buckets not cumulative at: " << line;
      }
      prev_bucket = count;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_count = count;
    } else if (!cur_hist.empty() && line.rfind(cur_hist + "_count ", 0) == 0) {
      if (inf_count < 0 || std::atoll(value.c_str()) != inf_count) {
        return ::testing::AssertionFailure()
               << cur_hist << "_count disagrees with its +Inf bucket";
      }
    }
  }
  if (!saw_eof) return ::testing::AssertionFailure() << "missing # EOF";
  return ::testing::AssertionSuccess();
}

TEST(TelemetryExportTest, ValidatorRejectsRepeatedAndUntypedFamilies) {
  EXPECT_TRUE(ValidExposition(
      "# TYPE a counter\na 1\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\n"
      "h_sum 3\nh_count 2\n# EOF\n"));
  // One family declared twice (a duplicated table row).
  EXPECT_FALSE(ValidExposition(
      "# TYPE a counter\na 1\n# TYPE a counter\na 1\n# EOF\n"));
  // A sample with no # TYPE, and a suffix only a histogram may strip.
  EXPECT_FALSE(ValidExposition("# TYPE a counter\nb 1\n# EOF\n"));
  EXPECT_FALSE(ValidExposition("# TYPE a counter\na_count 1\n# EOF\n"));
}

TEST(TelemetryExportTest, StatsJsonLineIsWellFormedJson) {
  GraphRegistry registry;
  auto graph = RegisterGraph(registry, "g", MakeGraph("ab", {{0, 1}}));
  ResultCache cache(8);
  QueryExecutor executor(ExecutorOptions{1, 4}, &cache);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 0);
  ASSERT_TRUE(executor.Submit(request).get().status.ok());

  std::string json =
      StatsJson(7, GatherTelemetry(registry, executor, &cache));
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"graphs\":[{\"name\":\"g\""), std::string::npos);
  EXPECT_NE(json.find("\"registry\":{\"loads\":1"), std::string::npos);
  EXPECT_NE(json.find("\"cache\":{"), std::string::npos);
  EXPECT_NE(json.find("\"executor\":{"), std::string::npos);
  EXPECT_NE(json.find("\"expired_in_queue\":0"), std::string::npos);
  EXPECT_NE(json.find("\"slowlog\":{"), std::string::npos);
  // No storage attached -> no storage object.
  EXPECT_EQ(json.find("\"storage\""), std::string::npos);
  // Balanced braces, single line.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(TelemetryExportTest, PrometheusPageValidatesAndCoversFamilies) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "g", RandomAttributedGraph(80, 0.15, 0x0B5));
  ResultCache cache(8);
  QueryExecutor executor(ExecutorOptions{2, 8}, &cache);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(2, 1);
  ASSERT_TRUE(executor.Submit(request).get().status.ok());
  ASSERT_TRUE(executor.Submit(request).get().status.ok());  // cache hit

  std::string text =
      PrometheusText(GatherTelemetry(registry, executor, &cache));
  EXPECT_TRUE(ValidExposition(text)) << text;

  // The three required latency histograms are present as histogram families
  // even if some have not recorded yet (interned before rendering).
  EXPECT_NE(text.find("# TYPE fc_query_queue_wait_micros histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fc_query_run_micros histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fc_wal_fsync_micros histogram"),
            std::string::npos);
  // Executor / cache / registry counter families.
  EXPECT_NE(text.find("fc_executor_served_total 2"), std::string::npos);
  EXPECT_NE(text.find("fc_executor_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("fc_result_cache_hits_total 1"), std::string::npos);
  EXPECT_NE(text.find("fc_registry_loads_total 1"), std::string::npos);
  EXPECT_NE(text.find("fc_registry_graphs 1"), std::string::npos);
  EXPECT_NE(text.find("fc_slowlog_capacity"), std::string::npos);
  // Both served queries ran (one search + one hit); the run histogram is
  // process-wide, so earlier tests may have contributed samples too.
  const size_t count_pos = text.find("fc_query_run_micros_count ");
  ASSERT_NE(count_pos, std::string::npos);
  EXPECT_GE(std::atoll(text.c_str() + count_pos +
                       sizeof("fc_query_run_micros_count ") - 1),
            2);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

/// The flat `"<name>":{...}` sub-object of a stats line, parsed.
wire::JsonObject StatsObject(const std::string& json, const std::string& name) {
  wire::JsonObject out;
  const size_t at = json.find("\"" + name + "\":{");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << name << " object in " << json;
    return out;
  }
  const size_t begin = json.find('{', at);
  const size_t end = json.find('}', begin);
  std::string error;
  EXPECT_TRUE(wire::ParseJsonObject(json.substr(begin, end - begin + 1), &out,
                                    &error))
      << error;
  return out;
}

/// True for the families rendered from the five service stats structs (the
/// process-wide registry also carries fc_wal_* and fc_query_* instruments).
bool IsServiceFamily(const std::string& name) {
  for (const char* prefix :
       {"fc_executor_", "fc_result_cache_", "fc_prepared_cache_",
        "fc_registry_", "fc_storage_", "fc_wal_records_",
        "fc_wal_group_commits_"}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// The sorted HELP/TYPE preamble of the service families: their names,
/// kinds and HELP strings are part of the scrape contract.
constexpr char kServiceFamilyPreamble[] = R"(
# HELP fc_executor_accepted_total Requests admitted
# HELP fc_executor_active_workers Workers currently executing a query stage or component task
# HELP fc_executor_admission_queue_depth Whole queries waiting for a worker
# HELP fc_executor_cache_hits_total Queries answered from the result cache
# HELP fc_executor_component_queue_depth Expanded Branch tasks waiting
# HELP fc_executor_component_tasks_total Component tasks scheduled pool-wide
# HELP fc_executor_deadline_misses_total Responses answered with deadline_missed
# HELP fc_executor_expired_in_queue_total Requests whose deadline expired before a worker popped them
# HELP fc_executor_incremental_requeries_total Queries answered exactly via incremental re-query
# HELP fc_executor_peak_queue_depth High-water mark of the combined backlog
# HELP fc_executor_prepared_builds_total Prepared plans built
# HELP fc_executor_prepared_hits_total Branch stages run on a cached prepared plan
# HELP fc_executor_queue_depth Total backlog (admission + component)
# HELP fc_executor_rejected_total Requests rejected (queue full or shutdown)
# HELP fc_executor_served_total Responses completed
# HELP fc_executor_stopped_deadline_total Searches stopped by the per-query deadline (expired in queue included)
# HELP fc_executor_stopped_node_limit_total Searches stopped by the request's node limit
# HELP fc_executor_stopped_time_limit_total Searches stopped by the request's own time limit
# HELP fc_executor_submitted_total Requests submitted
# HELP fc_executor_warm_starts_total Full searches seeded by a warm hint
# HELP fc_executor_workers Configured worker-pool size
# HELP fc_prepared_cache_capacity Prepared-plan cache capacity
# HELP fc_prepared_cache_entries Resident prepared plans
# HELP fc_prepared_cache_evictions_total Prepared-plan LRU evictions
# HELP fc_prepared_cache_forwarded_total Prepared plans re-keyed to a new epoch
# HELP fc_prepared_cache_hits_total Prepared-plan cache hits
# HELP fc_prepared_cache_insertions_total Prepared-plan insertions
# HELP fc_prepared_cache_invalidated_total Prepared plans dropped by invalidation
# HELP fc_prepared_cache_misses_total Prepared-plan cache misses
# HELP fc_registry_evictions_total Graphs evicted
# HELP fc_registry_graphs Currently registered graphs
# HELP fc_registry_loads_total Graphs registered via Load/Add
# HELP fc_registry_replaces_total Epoch transitions published by Replace
# HELP fc_registry_restores_total Graphs registered from durable recovery
# HELP fc_result_cache_capacity Result-cache capacity
# HELP fc_result_cache_entries Resident result-cache entries
# HELP fc_result_cache_evictions_total Result-cache LRU evictions
# HELP fc_result_cache_hint_entries Resident warm hints
# HELP fc_result_cache_hint_hits_total Warm hints consumed by queries
# HELP fc_result_cache_hints_published_total Warm hints created by snapshot migration
# HELP fc_result_cache_hits_total Result-cache hits
# HELP fc_result_cache_insertions_total Result-cache insertions
# HELP fc_result_cache_invalidated_total Result-cache entries/hints dropped by invalidation
# HELP fc_result_cache_misses_total Result-cache misses
# HELP fc_result_cache_republished_total Exact entries migrated to a new epoch's fingerprint
# HELP fc_storage_compactions_total Snapshot rewrites that truncated a WAL
# HELP fc_storage_recover_failures_total Manifest entries skipped on recovery
# HELP fc_storage_recoveries_total Graphs recovered by RecoverAll
# HELP fc_storage_snapshots_written_total FCG2 snapshots written (incl. compactions)
# HELP fc_storage_warm_entries_rejected_total Warm cache entries rejected by the restore verifier
# HELP fc_storage_warm_entries_restored_total Warm cache entries restored (verifier-approved)
# HELP fc_storage_warm_entries_saved_total Warm cache entries persisted
# HELP fc_wal_group_commits_total Write+fsync groups issued by commit leaders
# HELP fc_wal_records_appended_total WAL records acknowledged durable
# HELP fc_wal_records_replayed_total WAL records replayed during recovery
# TYPE fc_executor_accepted_total counter
# TYPE fc_executor_active_workers gauge
# TYPE fc_executor_admission_queue_depth gauge
# TYPE fc_executor_cache_hits_total counter
# TYPE fc_executor_component_queue_depth gauge
# TYPE fc_executor_component_tasks_total counter
# TYPE fc_executor_deadline_misses_total counter
# TYPE fc_executor_expired_in_queue_total counter
# TYPE fc_executor_incremental_requeries_total counter
# TYPE fc_executor_peak_queue_depth gauge
# TYPE fc_executor_prepared_builds_total counter
# TYPE fc_executor_prepared_hits_total counter
# TYPE fc_executor_queue_depth gauge
# TYPE fc_executor_rejected_total counter
# TYPE fc_executor_served_total counter
# TYPE fc_executor_stopped_deadline_total counter
# TYPE fc_executor_stopped_node_limit_total counter
# TYPE fc_executor_stopped_time_limit_total counter
# TYPE fc_executor_submitted_total counter
# TYPE fc_executor_warm_starts_total counter
# TYPE fc_executor_workers gauge
# TYPE fc_prepared_cache_capacity gauge
# TYPE fc_prepared_cache_entries gauge
# TYPE fc_prepared_cache_evictions_total counter
# TYPE fc_prepared_cache_forwarded_total counter
# TYPE fc_prepared_cache_hits_total counter
# TYPE fc_prepared_cache_insertions_total counter
# TYPE fc_prepared_cache_invalidated_total counter
# TYPE fc_prepared_cache_misses_total counter
# TYPE fc_registry_evictions_total counter
# TYPE fc_registry_graphs gauge
# TYPE fc_registry_loads_total counter
# TYPE fc_registry_replaces_total counter
# TYPE fc_registry_restores_total counter
# TYPE fc_result_cache_capacity gauge
# TYPE fc_result_cache_entries gauge
# TYPE fc_result_cache_evictions_total counter
# TYPE fc_result_cache_hint_entries gauge
# TYPE fc_result_cache_hint_hits_total counter
# TYPE fc_result_cache_hints_published_total counter
# TYPE fc_result_cache_hits_total counter
# TYPE fc_result_cache_insertions_total counter
# TYPE fc_result_cache_invalidated_total counter
# TYPE fc_result_cache_misses_total counter
# TYPE fc_result_cache_republished_total counter
# TYPE fc_storage_compactions_total counter
# TYPE fc_storage_recover_failures_total counter
# TYPE fc_storage_recoveries_total counter
# TYPE fc_storage_snapshots_written_total counter
# TYPE fc_storage_warm_entries_rejected_total counter
# TYPE fc_storage_warm_entries_restored_total counter
# TYPE fc_storage_warm_entries_saved_total counter
# TYPE fc_wal_group_commits_total counter
# TYPE fc_wal_records_appended_total counter
# TYPE fc_wal_records_replayed_total counter
)";

TEST(TelemetryExportTest, EveryServiceCounterAgreesAcrossStatsAndPrometheus) {
  // Every field of the five structs holds a distinct value (hundreds digit =
  // struct, units = declaration order), so a row wired to the wrong member
  // or rendered twice cannot pass.
  ServiceTelemetry t;
  t.registry = {101, 102, 103, 104, 105};
  t.cache = {201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211};
  t.prepared = {301, 302, 303, 304, 305, 306, 307, 308};
  t.executor = {401, 402, 403, 404, 405, 406, 407, 408, 409, 410, 411,
                412, 413, 414, 415, 416, 417, 418, 419, 420, 421};
  t.storage = storage::StorageCounters{501, 502, 503, 504, 505,
                                       506, 507, 508, 509, 510};

  struct Pin {
    const char* object;
    const char* key;
    const char* family;
    int64_t value;
  };
  const Pin pins[] = {
      {"registry", "loads", "fc_registry_loads_total", 101},
      {"registry", "restores", "fc_registry_restores_total", 102},
      {"registry", "replaces", "fc_registry_replaces_total", 103},
      {"registry", "evictions", "fc_registry_evictions_total", 104},
      {"registry", "graphs", "fc_registry_graphs", 105},
      {"cache", "hits", "fc_result_cache_hits_total", 201},
      {"cache", "misses", "fc_result_cache_misses_total", 202},
      {"cache", "insertions", "fc_result_cache_insertions_total", 203},
      {"cache", "evictions", "fc_result_cache_evictions_total", 204},
      {"cache", "invalidated", "fc_result_cache_invalidated_total", 205},
      {"cache", "republished", "fc_result_cache_republished_total", 206},
      {"cache", "hints_published", "fc_result_cache_hints_published_total",
       207},
      {"cache", "hint_hits", "fc_result_cache_hint_hits_total", 208},
      {"cache", "entries", "fc_result_cache_entries", 209},
      {"cache", "hint_entries", "fc_result_cache_hint_entries", 210},
      {"cache", "capacity", "fc_result_cache_capacity", 211},
      {"prepared", "hits", "fc_prepared_cache_hits_total", 301},
      {"prepared", "misses", "fc_prepared_cache_misses_total", 302},
      {"prepared", "insertions", "fc_prepared_cache_insertions_total", 303},
      {"prepared", "evictions", "fc_prepared_cache_evictions_total", 304},
      {"prepared", "invalidated", "fc_prepared_cache_invalidated_total", 305},
      {"prepared", "forwarded", "fc_prepared_cache_forwarded_total", 306},
      {"prepared", "entries", "fc_prepared_cache_entries", 307},
      {"prepared", "capacity", "fc_prepared_cache_capacity", 308},
      {"executor", "submitted", "fc_executor_submitted_total", 401},
      {"executor", "accepted", "fc_executor_accepted_total", 402},
      {"executor", "rejected", "fc_executor_rejected_total", 403},
      {"executor", "served", "fc_executor_served_total", 404},
      {"executor", "cache_hits", "fc_executor_cache_hits_total", 405},
      {"executor", "incremental", "fc_executor_incremental_requeries_total",
       406},
      {"executor", "warm_starts", "fc_executor_warm_starts_total", 407},
      {"executor", "prepared_hits", "fc_executor_prepared_hits_total", 408},
      {"executor", "prepared_builds", "fc_executor_prepared_builds_total",
       409},
      {"executor", "component_tasks", "fc_executor_component_tasks_total",
       410},
      {"executor", "deadline_misses", "fc_executor_deadline_misses_total",
       411},
      {"executor", "expired_in_queue", "fc_executor_expired_in_queue_total",
       412},
      {"executor", "stopped_node_limit",
       "fc_executor_stopped_node_limit_total", 413},
      {"executor", "stopped_time_limit",
       "fc_executor_stopped_time_limit_total", 414},
      {"executor", "stopped_deadline", "fc_executor_stopped_deadline_total",
       415},
      {"executor", "admission_queue_depth",
       "fc_executor_admission_queue_depth", 416},
      {"executor", "component_queue_depth",
       "fc_executor_component_queue_depth", 417},
      {"executor", "queue_depth", "fc_executor_queue_depth", 418},
      {"executor", "peak_queue_depth", "fc_executor_peak_queue_depth", 419},
      {"executor", "num_workers", "fc_executor_workers", 420},
      {"executor", "active_workers", "fc_executor_active_workers", 421},
      {"storage", "snapshots_written", "fc_storage_snapshots_written_total",
       501},
      {"storage", "wal_records_appended", "fc_wal_records_appended_total",
       502},
      {"storage", "wal_group_commits", "fc_wal_group_commits_total", 503},
      {"storage", "wal_records_replayed", "fc_wal_records_replayed_total",
       504},
      {"storage", "compactions", "fc_storage_compactions_total", 505},
      {"storage", "recoveries", "fc_storage_recoveries_total", 506},
      {"storage", "recover_failures", "fc_storage_recover_failures_total",
       507},
      {"storage", "warm_entries_saved", "fc_storage_warm_entries_saved_total",
       508},
      {"storage", "warm_entries_restored",
       "fc_storage_warm_entries_restored_total", 509},
      {"storage", "warm_entries_rejected",
       "fc_storage_warm_entries_rejected_total", 510},
  };

  // Prometheus side: the value of every unlabelled sample, and the sorted
  // HELP/TYPE preamble of the service families.
  const std::string text = PrometheusText(t);
  ASSERT_TRUE(ValidExposition(text)) << text;
  std::map<std::string, int64_t> samples;
  std::vector<std::string> preamble;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const std::string name = line.substr(7, line.find(' ', 7) - 7);
      if (IsServiceFamily(name)) preamble.push_back(line);
    } else if (line[0] != '#' && line.find('{') == std::string::npos) {
      const size_t sp = line.rfind(' ');
      samples[line.substr(0, sp)] = std::atoll(line.c_str() + sp + 1);
    }
  }

  // Stats side: each pinned key agrees with its Prometheus sample, and each
  // object holds exactly the pinned keys.
  const std::string json = StatsJson(1, t);
  std::map<std::string, wire::JsonObject> objects;
  std::map<std::string, size_t> pinned_keys;
  for (const Pin& pin : pins) {
    if (objects.count(pin.object) == 0) {
      objects[pin.object] = StatsObject(json, pin.object);
    }
    ++pinned_keys[pin.object];
    const wire::JsonObject& obj = objects[pin.object];
    ASSERT_EQ(obj.count(pin.key), 1u) << pin.object << "." << pin.key;
    EXPECT_EQ(static_cast<int64_t>(obj.at(pin.key).num), pin.value)
        << pin.object << "." << pin.key;
    ASSERT_EQ(samples.count(pin.family), 1u) << pin.family;
    EXPECT_EQ(samples[pin.family], pin.value) << pin.family;
  }
  for (const auto& [object, count] : pinned_keys) {
    EXPECT_EQ(objects[object].size(), count) << "unpinned key in " << object;
  }
  // Every service family carries a distinct field: 55 fields, 55 values.
  std::set<int64_t> service_values;
  for (const auto& [name, value] : samples) {
    if (IsServiceFamily(name)) service_values.insert(value);
  }
  EXPECT_EQ(service_values.size(), 55u);
  EXPECT_EQ(*service_values.begin(), 101);
  EXPECT_EQ(*service_values.rbegin(), 510);

  std::sort(preamble.begin(), preamble.end());
  std::vector<std::string> golden;
  std::istringstream golden_in(kServiceFamilyPreamble);
  for (std::string line; std::getline(golden_in, line);) {
    if (!line.empty()) golden.push_back(line);
  }
  EXPECT_EQ(preamble, golden);
}

TEST(TelemetryExecutorTest, MetricsStayMonotonicUnderQueryStorm) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "g", RandomAttributedGraph(70, 0.15, 0xF00D));
  ResultCache cache(16);
  QueryExecutor executor(ExecutorOptions{3, 64}, &cache);

  std::atomic<bool> done{false};
  std::atomic<bool> violated{false};
  std::thread sampler([&] {
    ExecutorMetrics prev;
    while (!done.load(std::memory_order_acquire)) {
      ExecutorMetrics m = executor.metrics();
      if (m.submitted < prev.submitted || m.accepted < prev.accepted ||
          m.rejected < prev.rejected || m.served < prev.served ||
          m.cache_hits < prev.cache_hits ||
          m.deadline_misses < prev.deadline_misses ||
          m.expired_in_queue < prev.expired_in_queue ||
          m.component_tasks < prev.component_tasks ||
          m.peak_queue_depth < prev.peak_queue_depth ||
          m.submitted < m.accepted + m.rejected ||
          m.served > m.accepted) {
        violated.store(true, std::memory_order_release);
        return;
      }
      prev = m;
      std::this_thread::yield();
    }
  });

  constexpr int kClients = 4;
  constexpr int kPerClient = 20;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        QueryRequest request;
        request.graph = graph;
        // Alternate two option keys so both miss and hit paths run.
        request.options = BaselineOptions(1 + (i % 2), 1);
        request.bypass_cache = (c == 0 && i % 4 == 0);
        executor.Submit(request).get();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_FALSE(violated.load()) << "metrics regressed mid-storm";
  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.submitted, static_cast<uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(m.served + m.rejected, m.submitted);
  EXPECT_GT(m.cache_hits, 0u);
}

/// The kQueryFinish events the process journal holds for one trace.
std::vector<obs::Event> FinishEvents(uint64_t trace_id) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : obs::EventJournal::Default().Snapshot()) {
    if (e.type == obs::EventType::kQueryFinish && e.a == trace_id) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(TelemetryExecutorTest, BothFinishPathsJournalMissesOnceAndHitsNever) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "journaled", RandomAttributedGraph(60, 0.2, 7));
  ResultCache cache(8);
  QueryExecutor executor(ExecutorOptions{2, 8}, &cache);

  QueryRequest request;
  request.graph = graph;
  for (const bool pool : {true, false}) {
    SCOPED_TRACE(pool ? "Submit" : "Run");
    // A fresh key per path: the first query misses, the second hits.
    request.options = BaselineOptions(pool ? 1 : 2, 1);
    auto answer = [&] {
      return pool ? executor.Submit(request).get() : executor.Run(request);
    };
    const QueryResponse miss = answer();
    const QueryResponse hit = answer();
    ASSERT_TRUE(miss.status.ok());
    ASSERT_FALSE(miss.cache_hit);
    ASSERT_TRUE(hit.cache_hit);
    ASSERT_NE(miss.trace_id, 0u);
    ASSERT_NE(hit.trace_id, 0u);

    const std::vector<obs::Event> finished = FinishEvents(miss.trace_id);
    ASSERT_EQ(finished.size(), 1u);
    EXPECT_STREQ(finished[0].label, "journaled");
    EXPECT_TRUE(FinishEvents(hit.trace_id).empty());
    if (!pool) {
      // The synchronous path never waits in a queue.
      EXPECT_EQ(miss.queue_micros, 0);
      EXPECT_EQ(hit.queue_micros, 0);
    }
  }
  EXPECT_EQ(executor.metrics().served, 4u);
}

TEST(TelemetryTraceTest, SlowQueryEntersSlowlogWithTiledSpans) {
  obs::Slowlog::Default().Reset();  // empty log admits everything
  GraphRegistry registry;
  // Dense graph + permissive fairness is a hard instance; a 100 ms deadline
  // caps the search at a deterministic-enough "slow" duration well above
  // the 1 ms floor the 10% tiling check needs to be meaningful.
  auto graph =
      RegisterGraph(registry, "hard", RandomAttributedGraph(150, 0.9, 0x51));
  QueryExecutor executor(ExecutorOptions{2, 8}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 100);
  request.deadline_seconds = 0.1;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.trace_id, 0u);
  ASSERT_GE(response.run_micros, 1000) << "instance finished too fast";

  std::shared_ptr<const obs::Trace> trace =
      obs::Slowlog::Default().Find(response.trace_id);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->run_micros, response.run_micros);
  // The trace's queue time is stamped at admission; the response's is
  // derived at completion (total - run), so they differ by the completion
  // bookkeeping — microseconds, not milliseconds.
  EXPECT_NEAR(static_cast<double>(trace->queue_micros),
              static_cast<double>(response.queue_micros), 5000.0);
  ASSERT_FALSE(trace->spans.empty());

  // Top-level spans after the queue span tile admission..completion, so
  // their durations must sum to within 10% of the reported run time.
  int64_t top_sum = 0;
  bool saw_queue = false;
  for (const obs::TraceSpan& span : trace->spans) {
    EXPECT_GE(span.duration_micros, 0);
    if (span.parent >= 0) {
      ASSERT_LT(static_cast<size_t>(span.parent), trace->spans.size());
      continue;
    }
    if (std::string(span.name) == "queue") {
      saw_queue = true;
      continue;
    }
    top_sum += span.duration_micros;
  }
  EXPECT_TRUE(saw_queue) << "queued request must carry a queue span";
  const double run = static_cast<double>(response.run_micros);
  EXPECT_GE(top_sum, run * 0.9) << "top-level spans under-cover the run";
  EXPECT_LE(top_sum, run * 1.1 + 1000.0)
      << "top-level spans over-cover the run";

  // The trace renders as one JSON line naming its spans.
  std::string json = TraceJson(*trace);
  EXPECT_NE(json.find("\"trace_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"graph\":\"hard\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(TelemetryTraceTest, ExpiredInQueueCountedAndTraced) {
  obs::Slowlog::Default().Reset();
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "hard", RandomAttributedGraph(150, 0.9, 0x52));
  QueryExecutor executor(ExecutorOptions{1, 8}, nullptr);

  // Blocker occupies the single worker for ~100 ms.
  QueryRequest blocker;
  blocker.graph = graph;
  blocker.options = BaselineOptions(1, 100);
  blocker.deadline_seconds = 0.1;
  std::future<QueryResponse> blocked = executor.Submit(blocker);

  // Probe's 1 µs budget cannot survive the queue wait: it must expire
  // before any search starts, and be counted in the dedicated counter.
  QueryRequest probe;
  probe.graph = graph;
  probe.options = BaselineOptions(1, 100);
  probe.deadline_seconds = 1e-6;
  QueryResponse response = executor.Submit(probe).get();
  blocked.get();
  EXPECT_TRUE(response.status.IsAborted());
  EXPECT_TRUE(response.deadline_missed);

  ExecutorMetrics m = executor.metrics();
  EXPECT_EQ(m.expired_in_queue, 1u);
  EXPECT_EQ(m.deadline_misses, 2u);  // truncated blocker + expired probe
}

TEST(TelemetryExportTest, StatsAndPrometheusCarryStopAndWorkerFamilies) {
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "hard", RandomAttributedGraph(150, 0.9, 0x53));
  QueryExecutor executor(ExecutorOptions{2, 8}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 100);
  request.options.node_limit = 64;
  ASSERT_TRUE(executor.Submit(request).get().status.ok());

  std::string json = StatsJson(1, GatherTelemetry(registry, executor));
  EXPECT_NE(json.find("\"stopped_node_limit\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stopped_time_limit\":0"), std::string::npos);
  EXPECT_NE(json.find("\"stopped_deadline\":0"), std::string::npos);
  EXPECT_NE(json.find("\"num_workers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"active_workers\":"), std::string::npos);

  std::string text = PrometheusText(GatherTelemetry(registry, executor));
  EXPECT_TRUE(ValidExposition(text)) << text;
  EXPECT_NE(text.find("fc_executor_stopped_node_limit_total 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fc_executor_stopped_time_limit_total 0"),
            std::string::npos);
  EXPECT_NE(text.find("fc_executor_stopped_deadline_total 0"),
            std::string::npos);
  EXPECT_NE(text.find("fc_executor_workers 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fc_executor_active_workers gauge"),
            std::string::npos);
  // Queue congestion is scrapable, not just stats-JSON-visible.
  EXPECT_NE(text.find("# TYPE fc_executor_admission_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fc_executor_component_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fc_executor_peak_queue_depth gauge"),
            std::string::npos);
  // Nothing in flight at scrape time: both live-search gauges read 0.
  // (Other suites' queries are drained; the registry is process-wide.)
  EXPECT_NE(text.find("# TYPE fc_queries_inflight gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE fc_search_incumbent_gap gauge"),
            std::string::npos);
}

TEST(TelemetryExportTest, InflightGaugesReflectTheProgressRegistry) {
  // Feed the process-wide registry directly (no executor) and scrape: the
  // gauges must mirror ProgressRegistry::Default() at render time.
  auto rec = obs::ProgressRegistry::Default().Register(
      0xFEED, "gauge_probe", "", 1);
  rec->NoteIncumbent(4);
  rec->SetUpperBound(11);
  GraphRegistry registry;
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);
  std::string text = PrometheusText(GatherTelemetry(registry, executor));
  obs::ProgressRegistry::Default().Unregister(0xFEED);

  EXPECT_TRUE(ValidExposition(text)) << text;
  EXPECT_NE(text.find("fc_queries_inflight 1"), std::string::npos) << text;
  EXPECT_NE(text.find("fc_search_incumbent_gap 7"), std::string::npos) << text;
}

TEST(TelemetryExportTest, ProgressJsonSerializesEveryField) {
  obs::QueryProgress progress(9, "dblp", "k=2;delta=1", 4);
  progress.AddNodes(2048);
  progress.NoteIncumbent(6);
  progress.SetUpperBound(19);
  progress.NoteComponentDone();
  std::string json = ProgressJson(progress.Snapshot());
  EXPECT_NE(json.find("\"trace_id\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"graph\":\"dblp\""), std::string::npos);
  EXPECT_NE(json.find("\"options\":\"k=2;delta=1\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\":2048"), std::string::npos);
  EXPECT_NE(json.find("\"incumbent_size\":6"), std::string::npos);
  EXPECT_NE(json.find("\"upper_bound\":19"), std::string::npos);
  EXPECT_NE(json.find("\"components_done\":1"), std::string::npos);
  EXPECT_NE(json.find("\"components_total\":4"), std::string::npos);
  EXPECT_NE(json.find("\"elapsed_micros\":"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(TelemetryTraceTest, BypassPreparedCachePathCarriesPrepareSpan) {
  // A fully cold query (bypassing both caches) must still produce a span
  // timeline whose prepare span covers the from-scratch reduction — the
  // bypass path shares RecordTelemetry with the normal path.
  obs::Slowlog::Default().Reset();
  GraphRegistry registry;
  auto graph =
      RegisterGraph(registry, "hard", RandomAttributedGraph(150, 0.9, 0x54));
  QueryExecutor executor(ExecutorOptions{2, 8}, nullptr);

  QueryRequest request;
  request.graph = graph;
  request.options = BaselineOptions(1, 100);
  request.bypass_cache = true;
  request.bypass_prepared_cache = true;
  request.deadline_seconds = 0.1;
  QueryResponse response = executor.Submit(request).get();
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.trace_id, 0u);
  EXPECT_FALSE(response.prepared_hit);

  std::shared_ptr<const obs::Trace> trace =
      obs::Slowlog::Default().Find(response.trace_id);
  ASSERT_NE(trace, nullptr);
  bool saw_prepare = false;
  bool saw_branch = false;
  for (const obs::TraceSpan& span : trace->spans) {
    if (std::string(span.name) == "prepare") {
      saw_prepare = true;
      EXPECT_GT(span.duration_micros, 0)
          << "bypassed prepared cache means a real reduction ran";
    }
    if (std::string(span.name) == "branch") saw_branch = true;
  }
  EXPECT_TRUE(saw_prepare);
  EXPECT_TRUE(saw_branch);
  EXPECT_STREQ(trace->stop_reason, "deadline");
  std::string json = TraceJson(*trace);
  EXPECT_NE(json.find("\"stop_reason\":\"deadline\""), std::string::npos)
      << json;
}

TEST(TelemetryTraceTest, TraceJsonCarriesStopReasonAndPlan) {
  obs::Trace trace;
  trace.id = 5;
  trace.graph = "g";
  trace.stop_reason = "node_limit";
  trace.explain_json = "{\"prepare\":{\"prepared_hit\":false}}";
  std::string json = TraceJson(trace);
  EXPECT_NE(json.find("\"stop_reason\":\"node_limit\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"plan\":{\"prepare\":{\"prepared_hit\":false}}"),
            std::string::npos)
      << json;
  // Without a plan, the field is omitted entirely.
  trace.explain_json.clear();
  EXPECT_EQ(TraceJson(trace).find("\"plan\""), std::string::npos);
}

TEST(TelemetryTraceTest, TraceJsonSerializesFlagsAndSpanTree) {
  obs::Trace trace;
  trace.id = 42;
  trace.graph = "g";
  trace.options = "k=2;delta=1";
  trace.queue_micros = 5;
  trace.run_micros = 100;
  trace.total_micros = 107;
  trace.ok = true;
  trace.cache_hit = true;
  trace.spans.push_back({"queue", -1, 0, 5});
  trace.spans.push_back({"result_cache_probe", -1, 5, 100});
  std::string json = TraceJson(trace);
  EXPECT_NE(json.find("\"trace_id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"options\":\"k=2;delta=1\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit\":true"), std::string::npos);
  EXPECT_NE(json.find("\"deadline_missed\":false"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"queue\",\"parent\":-1,\"start_micros\":0,"
                      "\"duration_micros\":5}"),
            std::string::npos);
}

TEST(TelemetryHealthTest, HealthyServiceReportsOkWithContext) {
  GraphRegistry registry;
  RegisterGraph(registry, "g", MakeGraph("ab", {{0, 1}}));
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);

  ServiceTelemetry t = GatherTelemetry(registry, executor);
  std::string json = HealthJson(3, t);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"id\":3"), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"reasons\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"build\":{\"version\":"), std::string::npos);
  EXPECT_NE(json.find("\"graphs\":1"), std::string::npos);
  // No watchdog attached -> no watchdog object.
  EXPECT_EQ(json.find("\"watchdog\""), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(TelemetryHealthTest, WatchdogFindingsDegradeTheVerdict) {
  GraphRegistry registry;
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);
  ServiceTelemetry t = GatherTelemetry(registry, executor);
  t.watchdog.emplace();
  t.watchdog->running = true;
  t.watchdog->currently_stuck = 2;
  t.watchdog->queue_stalled_now = true;
  t.watchdog->deadline_miss_rate = 0.75;

  std::string json = HealthJson(4, t);
  EXPECT_NE(json.find("\"status\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"stalled_query\""), std::string::npos);
  EXPECT_NE(json.find("\"admission_queue_stalled\""), std::string::npos);
  EXPECT_NE(json.find("\"high_deadline_miss_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"watchdog\":{\"running\":true"), std::string::npos);
  EXPECT_NE(json.find("\"currently_stuck\":2"), std::string::npos);

  // A healthy watchdog keeps the verdict ok.
  t.watchdog = obs::WatchdogStats{};
  json = HealthJson(5, t);
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"reasons\":[]"), std::string::npos);
}

TEST(TelemetryExportTest, StatsCarriesUptimeAndBuildIdentity) {
  GraphRegistry registry;
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);
  std::string json = StatsJson(1, GatherTelemetry(registry, executor));
  EXPECT_NE(json.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"build\":{\"version\":"), std::string::npos);
  EXPECT_NE(json.find("\"build_type\":"), std::string::npos);
  EXPECT_NE(json.find("\"compiler\":"), std::string::npos);
}

TEST(TelemetryExportTest, PrometheusCarriesBuildInfoAndWatchdogFamilies) {
  GraphRegistry registry;
  QueryExecutor executor(ExecutorOptions{1, 4}, nullptr);
  // Constructing a watchdog interns its fc_watchdog_* instruments.
  obs::Watchdog dog(obs::WatchdogOptions{});

  std::string text = PrometheusText(GatherTelemetry(registry, executor));
  EXPECT_TRUE(ValidExposition(text)) << text;
  EXPECT_NE(text.find("fc_build_info{version=\""), std::string::npos);
  EXPECT_NE(text.find("build_type=\""), std::string::npos);
  EXPECT_NE(text.find("simd=\""), std::string::npos);
  EXPECT_NE(text.find("# TYPE fc_uptime_seconds gauge"), std::string::npos);
  EXPECT_NE(text.find("fc_journal_events_recorded"), std::string::npos);
  EXPECT_NE(text.find("fc_watchdog_sweeps_total"), std::string::npos);
  EXPECT_NE(text.find("fc_watchdog_stuck_queries"), std::string::npos);
}

}  // namespace
}  // namespace fairclique
