// cold-reduce and cold-branch: closed loop, one client, fully cold queries
// (bypass_cache + bypass_prepared_cache) with the full preset.
//
// The traced run submits each query to the executor as usual and then
// replays it on the caller thread through the public stages, with a span
// around every call:
//
//   query
//     graph.coloring            GreedyColoring, before each stage
//     reduction.en_colorful_core / colorful_sup / en_colorful_sup
//     reduction.support_table   ComputeColorfulSupports on the ColorfulSup
//                               input (the colour-table share of that stage)
//     reduction.materialize     FilteredSubgraph + id composition
//     core.decompose            PrepareGraph on the reduced graph with every
//                               reduction switched off, i.e. PrepareGraph
//                               minus ReduceForFairClique
//     core.seed                 SeedIncumbent
//     bounds.root_ub            ComputeUpperBound at each component's root
//     core.branch               BranchComponent per component, shared floor
//     core.aggregate            AggregatePreparedSearch
//
// Outside the spans the replay is checked: its reduced graph must equal
// ReduceForFairClique's, and its answer size the executor's.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>

#include "bounds/upper_bounds.h"
#include "check.h"
#include "core/prepared_graph.h"
#include "core/verifier.h"
#include "graph/coloring.h"
#include "reduction/colorful_core.h"
#include "reduction/colorful_support.h"
#include "reduction/reduce.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace fc = fairclique;

namespace {

constexpr uint64_t kOrderStream = 2;
constexpr int kSetupRepeats = 3;
// Safety valve: a query still running after this long is reported as
// incomplete (a failed operation) instead of stalling the run.
constexpr double kQueryTimeLimitSeconds = 60.0;

const char* const kStageSpans[3] = {"reduction.en_colorful_core",
                                    "reduction.colorful_sup",
                                    "reduction.en_colorful_sup"};

fc::QueryRequest ColdRequest(const Service& service, const ColdPlan& plan,
                             const Key& key) {
  fc::QueryRequest request;
  request.graph = service.registry.Get(plan.graphs[key.graph].name);
  request.options = OptionsFor(key, plan.graphs[key.graph].dataset);
  request.options.time_limit_seconds = kQueryTimeLimitSeconds;
  request.bypass_cache = true;
  request.bypass_prepared_cache = true;
  return request;
}

struct Replay {
  bool ok = true;
  std::string error;
  double edges_kept[3] = {1.0, 1.0, 1.0};
  int64_t seed_size = 0;
  size_t answer = 0;
  uint64_t nodes = 0;
  uint64_t prunes = 0;
  size_t components = 0;
  int64_t root_ub = 0;
  std::vector<fc::VertexId> witness;  // original ids
};

Replay ReplayQuery(Tracer& tracer, uint32_t rid, const fc::AttributedGraph& g,
                   const Key& key, const fc::SearchOptions& options,
                   size_t executor_size) {
  Replay out;
  fc::AttributedGraph cur = g;
  std::vector<fc::VertexId> ids(g.num_vertices());
  std::iota(ids.begin(), ids.end(), 0);
  // The plan is built over the already-reduced graph, so it must not reduce
  // again; BranchComponent only accepts options that match the plan.
  fc::SearchOptions plan_options = options;
  plan_options.reductions = {false, false, false};
  fc::SearchResult result;
  {
    Scope query(tracer, "query", rid);
    for (int s = 0; s < 3; ++s) {
      fc::Coloring coloring;
      {
        Scope span(tracer, "graph.coloring", rid);
        coloring = fc::GreedyColoring(cur);
      }
      std::vector<uint8_t> vertex_alive;
      std::vector<uint8_t> edge_alive;
      if (s == 0) {
        Scope span(tracer, kStageSpans[0], rid);
        vertex_alive = fc::EnColorfulCore(cur, coloring, key.k - 1).alive;
      } else {
        if (s == 1) {
          Scope span(tracer, "reduction.support_table", rid);
          std::vector<fc::AttrCounts> supports =
              fc::ComputeColorfulSupports(cur, coloring);
          if (supports.size() != cur.num_edges()) {
            out.ok = false;
            out.error = "support table size mismatch";
          }
        }
        Scope span(tracer, kStageSpans[s], rid);
        fc::EdgeReductionResult r =
            s == 1 ? fc::ColorfulSupReduction(cur, coloring, key.k)
                   : fc::EnColorfulSupReduction(cur, coloring, key.k);
        vertex_alive = std::move(r.vertex_alive);
        edge_alive = std::move(r.edge_alive);
      }
      Scope span(tracer, "reduction.materialize", rid);
      std::vector<fc::VertexId> inner;
      fc::AttributedGraph next =
          cur.FilteredSubgraph(vertex_alive, edge_alive, &inner);
      out.edges_kept[s] = cur.num_edges() == 0
                              ? 1.0
                              : static_cast<double>(next.num_edges()) /
                                    static_cast<double>(cur.num_edges());
      std::vector<fc::VertexId> composed(inner.size());
      for (size_t i = 0; i < inner.size(); ++i) composed[i] = ids[inner[i]];
      ids = std::move(composed);
      cur = std::move(next);
    }
    std::shared_ptr<const fc::PreparedGraph> plan;
    {
      Scope span(tracer, "core.decompose", rid);
      plan = fc::PrepareGraph(cur, key.k, plan_options.reductions);
    }
    fc::IncumbentSeed seed;
    {
      Scope span(tracer, "core.seed", rid);
      seed = fc::SeedIncumbent(cur, *plan, plan_options);
    }
    {
      // The answer lies in some component, so the largest root bound over
      // the components bounds it.
      Scope span(tracer, "bounds.root_ub", rid);
      for (const auto& component : plan->components) {
        out.root_ub = std::max(
            out.root_ub, fc::ComputeUpperBound(component->graph, key.delta,
                                               options.bounds));
      }
    }
    std::vector<fc::ComponentBranchResult> results(plan->components.size());
    {
      Scope span(tracer, "core.branch", rid);
      fc::Deadline deadline(kQueryTimeLimitSeconds);
      std::atomic<int64_t> floor{static_cast<int64_t>(seed.clique.size())};
      for (size_t i = 0; i < results.size(); ++i) {
        results[i] = fc::BranchComponent(*plan, i, plan_options, deadline,
                                         &floor);
      }
    }
    {
      Scope span(tracer, "core.aggregate", rid);
      result = fc::AggregatePreparedSearch(*plan, seed, results);
    }
    out.seed_size = seed.heuristic_size;
    out.components = plan->components.size();
  }

  // Checks, outside every span.
  fc::ReductionPipelineResult reference =
      fc::ReduceForFairClique(g, key.k, options.reductions);
  std::span<const fc::Edge> a = reference.reduced.edges();
  std::span<const fc::Edge> b = cur.edges();
  bool same_edges = a.size() == b.size();
  for (size_t i = 0; same_edges && i < a.size(); ++i) {
    same_edges = a[i].u == b[i].u && a[i].v == b[i].v;
  }
  if (reference.original_ids != ids || !same_edges ||
      reference.reduced.num_vertices() != cur.num_vertices()) {
    out.ok = false;
    out.error = "stage replay differs from ReduceForFairClique";
  }
  for (fc::VertexId v : result.clique.vertices) out.witness.push_back(ids[v]);
  std::sort(out.witness.begin(), out.witness.end());
  out.answer = out.witness.size();
  out.nodes = result.stats.nodes;
  out.prunes = result.stats.bound_prunes + result.stats.size_prunes +
               result.stats.attr_prunes;
  if (!result.stats.completed) {
    out.ok = false;
    out.error = "replay did not complete";
  } else if (out.answer != executor_size) {
    out.ok = false;
    out.error = "replay answer " + std::to_string(out.answer) +
                " != executor answer " + std::to_string(executor_size);
  }
  return out;
}

double Ms(double seconds) { return seconds * 1e3; }

RunResult RunCold(const Args& args, const ColdPlan& plan,
                  double latency_limit_ms, LayerValues* layers) {
  RunResult run;
  // Set-up: generate + register, then warm up with one fixed query;
  // repeated, the last repetition kept.
  std::vector<double> setup_times;
  std::unique_ptr<Service> service;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupRepeats); ++rep) {
    service.reset();
    double t0 = NowSeconds();
    service = BuildService(plan.graphs, "");
    fc::QueryResponse warm =
        service->executor->Submit(ColdRequest(*service, plan, plan.warmup))
            .get();
    setup_times.push_back(NowSeconds() - t0);
    if (!warm.status.ok()) {
      std::fprintf(stderr, "perfbench: warm-up query failed: %s\n",
                   warm.status.ToString().c_str());
      run.correct = false;
    }
  }

  Tracer tracer(args.trace);
  AnswerChecker checker;
  std::vector<double> latencies_ms;
  std::vector<Replay> replays;
  std::vector<double> queue_ms, run_ms;
  fc::Rng order(SubSeed(args.seed, kOrderStream));
  uint32_t rid = 0;
  size_t wrong_replays = 0;
  const fc::ExecutorMetrics before = service->executor->metrics();

  const double start = NowSeconds();
  while (NowSeconds() - start < args.seconds) {
    std::vector<Key> round = plan.keys;
    order.Shuffle(round);  // whole rounds keep the mix equal in every run
    for (const Key& key : round) {
      const GraphSpec& spec = plan.graphs[key.graph];
      fc::QueryRequest request = ColdRequest(*service, plan, key);
      std::shared_ptr<const fc::RegisteredGraph> graph = request.graph;
      fc::SearchOptions options = request.options;
      double t0 = NowSeconds();
      fc::QueryResponse response =
          service->executor->Submit(std::move(request)).get();
      double latency_ms = Ms(NowSeconds() - t0);
      ++run.attempted;
      if (!response.status.ok() || response.result == nullptr ||
          !response.result->stats.completed || response.deadline_missed) {
        ++run.failed;
        continue;
      }
      latencies_ms.push_back(latency_ms);
      queue_ms.push_back(static_cast<double>(response.queue_micros) / 1e3);
      run_ms.push_back(static_cast<double>(response.run_micros) / 1e3);
      checker.Record({graph->graph, graph->fingerprint, spec.dataset, key.k,
                      key.delta, response.result->clique.vertices});
      if (args.trace) {
        ++rid;
        Replay replay = ReplayQuery(tracer, rid, *graph->graph, key, options,
                                    response.result->clique.size());
        if (!replay.ok) {
          std::fprintf(stderr, "perfbench: replay mismatch (%s k=%d): %s\n",
                       spec.name.c_str(), key.k, replay.error.c_str());
          ++wrong_replays;
        }
        checker.Record({graph->graph, graph->fingerprint, spec.dataset, key.k,
                        key.delta, replay.witness});
        replays.push_back(std::move(replay));
      }
    }
  }
  const double wall = NowSeconds() - start;
  const double peak_rss = PeakRssMb();
  const fc::ExecutorMetrics after = service->executor->metrics();

  std::string first_error;
  size_t wrong = checker.CheckAll(kWorkers + 1, &first_error) + wrong_replays;
  if (wrong > 0) {
    std::fprintf(stderr, "perfbench: %zu wrong answers; first: %s\n", wrong,
                 first_error.c_str());
    run.correct = false;
    run.failed += wrong;
  }
  size_t good = 0;
  for (double ms : latencies_ms) good += ms <= latency_limit_ms ? 1 : 0;
  good -= std::min(good, wrong);

  Tail tail = TailOf(latencies_ms);
  run.Add("setup_s", Median(setup_times), "s");
  run.Add("query_p50_ms", Median(latencies_ms), "ms");
  run.Add("query_tail_ms", tail.value, "ms");
  run.Add("goodput_qps", static_cast<double>(good) / wall, "1/s");
  run.Add("peak_rss_mb", peak_rss, "MB");
  char note[256];
  std::snprintf(note, sizeof(note),
                "queries=%zu tail=p%g (n=%zu) latency_limit_ms=%g wall_s=%.2f "
                "setups_s=%.3f..%.3f",
                latencies_ms.size(), tail.percentile, tail.samples,
                latency_limit_ms, wall,
                *std::min_element(setup_times.begin(), setup_times.end()),
                *std::max_element(setup_times.begin(), setup_times.end()));
  run.notes.push_back(note);

  LayerValues& L = *layers;
  const double queries = static_cast<double>(after.served - before.served);
  L["service.queue_wait_ms"] = Median(queue_ms);
  L["service.run_ms"] = Median(run_ms);
  L["service.component_tasks_per_query"] =
      queries > 0 ? static_cast<double>(after.component_tasks -
                                        before.component_tasks) /
                        queries
                  : 0.0;
  L["service.peak_queue_depth"] = static_cast<double>(after.peak_queue_depth);
  L["error_rate"] = run.attempted > 0 ? static_cast<double>(run.failed) /
                                            static_cast<double>(run.attempted)
                                      : 0.0;
  if (!args.trace) return run;

  // Per-layer values: per query, the self time of each span name; the
  // metric is the median over the traced queries.
  std::map<std::string, std::vector<double>> per_query;
  std::vector<double> coverage, reduction_share, branch_share, overhead_pct;
  for (uint32_t r = 1; r <= rid; ++r) {
    std::map<std::string, double> self = tracer.SelfTimes(r);
    double root = tracer.Total("query", r);
    for (const auto& [name, seconds] : self) per_query[name].push_back(Ms(seconds));
    for (const char* name :
         {"graph.coloring", "reduction.en_colorful_core",
          "reduction.colorful_sup", "reduction.support_table",
          "reduction.en_colorful_sup", "reduction.materialize",
          "core.decompose", "core.seed", "bounds.root_ub", "core.branch",
          "core.aggregate"}) {
      if (self.find(name) == self.end()) per_query[name].push_back(0.0);
    }
    if (root <= 0) continue;
    coverage.push_back((root - self["query"]) / root * 100.0);
    // Shares are of the executor-equivalent path: the replay minus the two
    // measurement-only calls (support table, root bound) and the gaps.
    double reduction = self["graph.coloring"] +
                       self["reduction.en_colorful_core"] +
                       self["reduction.colorful_sup"] +
                       self["reduction.en_colorful_sup"] +
                       self["reduction.materialize"];
    double path = reduction + self["core.decompose"] + self["core.seed"] +
                  self["core.branch"] + self["core.aggregate"];
    if (path > 0) {
      reduction_share.push_back(reduction / path * 100.0);
      branch_share.push_back(self["core.branch"] / path * 100.0);
      // The same query untraced, through the executor.
      overhead_pct.push_back((Ms(path) / latencies_ms[r - 1] - 1.0) * 100.0);
    }
  }
  auto median_of = [&per_query](const char* name) {
    auto it = per_query.find(name);
    return it == per_query.end() ? 0.0 : Median(it->second);
  };
  L["graph.coloring_ms"] = median_of("graph.coloring");
  L["reduction.en_colorful_core_ms"] = median_of("reduction.en_colorful_core");
  L["reduction.colorful_sup_ms"] = median_of("reduction.colorful_sup");
  L["reduction.support_table_ms"] = median_of("reduction.support_table");
  L["reduction.en_colorful_sup_ms"] = median_of("reduction.en_colorful_sup");
  L["reduction.materialize_ms"] = median_of("reduction.materialize");
  L["core.decompose_ms"] = median_of("core.decompose");
  L["core.seed_ms"] = median_of("core.seed");
  L["core.branch_ms"] = median_of("core.branch");
  L["core.aggregate_ms"] = median_of("core.aggregate");
  L["bounds.root_ub_ms"] = median_of("bounds.root_ub");
  L["trace.coverage_pct"] = Median(coverage);
  L["reduction.share_pct"] = Median(reduction_share);
  L["core.branch_share_pct"] = Median(branch_share);
  L["obs.trace_overhead_pct"] = Median(overhead_pct);

  std::vector<double> kept[3], seed_ratio, nodes, knodes_per_s, prunes,
      components, gap;
  for (size_t i = 0; i < replays.size(); ++i) {
    const Replay& r = replays[i];
    for (int s = 0; s < 3; ++s) kept[s].push_back(r.edges_kept[s]);
    if (r.answer > 0) {
      seed_ratio.push_back(static_cast<double>(r.seed_size) /
                           static_cast<double>(r.answer));
    }
    nodes.push_back(static_cast<double>(r.nodes));
    double branch_ms = per_query["core.branch"][i];
    if (branch_ms > 0) {
      knodes_per_s.push_back(static_cast<double>(r.nodes) / branch_ms);
    }
    prunes.push_back(r.nodes > 0 ? static_cast<double>(r.prunes) /
                                       static_cast<double>(r.nodes)
                                 : 0.0);
    components.push_back(static_cast<double>(r.components));
    gap.push_back(static_cast<double>(r.root_ub) -
                  static_cast<double>(r.answer));
  }
  L["reduction.en_colorful_core.edges_kept_ratio"] = Median(kept[0]);
  L["reduction.colorful_sup.edges_kept_ratio"] = Median(kept[1]);
  L["reduction.en_colorful_sup.edges_kept_ratio"] = Median(kept[2]);
  L["core.seed_size_ratio"] = Median(seed_ratio);
  L["core.branch_nodes"] = Median(nodes);
  L["core.branch_knodes_per_s"] = Median(knodes_per_s);
  L["core.prunes_per_node"] = Median(prunes);
  L["core.components"] = Median(components);
  L["bounds.root_gap"] = Median(gap);

  MakeDirs(args.out_dir);
  std::string path = args.out_dir + "/trace-" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".json";
  if (tracer.WriteJson(path, L)) run.notes.push_back("trace: " + path);
  return run;
}

}  // namespace

RunResult RunColdReduce(const Args& args, LayerValues* layers) {
  return RunCold(args, ColdReducePlan(args.seed), 10000.0, layers);
}

RunResult RunColdBranch(const Args& args, LayerValues* layers) {
  return RunCold(args, ColdBranchPlan(), 10000.0, layers);
}

}  // namespace perfbench
