#include "core/max_fair_clique.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/prepared_graph.h"

namespace fairclique {

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "";
    case StopReason::kNodeLimit: return "node_limit";
    case StopReason::kTimeLimit: return "time_limit";
  }
  return "";
}

// The monolithic entry point is a thin wrapper over the staged query plan
// (core/prepared_graph.h): SeedAndLift seeds on `g` and picks the plan's k,
// PrepareGraph (Reduce + Decompose) runs at that k, and the Branch stage
// searches it against the seed. A certified seed skips the reduction: its
// empty CertifiedPlan gives the Branch stage no tasks, so it answers the
// seed. The service's QueryExecutor takes the same steps on a plan-cache
// miss. Callers that re-ask with different
// delta/bound options should PrepareGraph once and call
// SearchPreparedGraph per query (or go through the service layer's
// PreparedGraphCache).
SearchResult FindMaximumFairClique(const AttributedGraph& g,
                                   const SearchOptions& options) {
  FC_CHECK(options.params.k >= 1) << "fairness parameter k must be >= 1";
  FC_CHECK(options.params.delta >= 0) << "delta must be >= 0";
  WallTimer total_timer;

  LiftedSeed lifted = SeedAndLift(g, options);
  WallTimer reduce_timer;
  std::shared_ptr<const PreparedGraph> prepared =
      lifted.certified ? CertifiedPlan(lifted.plan_k, options.reductions)
                       : PrepareGraph(g, lifted.plan_k, options.reductions);
  int64_t reduce_micros = reduce_timer.ElapsedMicros();

  // The monolith's time limit covers seed + reduction + branch; deduct the
  // time already spent so the Branch stage cannot overrun the valve.
  SearchOptions branch_options = options;
  branch_options.params.k = lifted.plan_k;
  branch_options.time_limit_seconds = RemainingTimeBudget(
      options.time_limit_seconds, total_timer.ElapsedSeconds());
  SearchResult result =
      SearchPreparedGraph(*prepared, branch_options, std::move(lifted.seed));
  result.stats.reduce_micros = reduce_micros;
  result.stats.total_micros = total_timer.ElapsedMicros();
  return result;
}

SearchOptions BaselineOptions(int k, int delta) {
  SearchOptions options;
  options.params = {k, delta};
  options.bounds = {.use_advanced = false, .extra = ExtraBound::kNone};
  options.use_heuristic = false;
  return options;
}

SearchOptions BoundedOptions(int k, int delta, ExtraBound extra) {
  SearchOptions options = BaselineOptions(k, delta);
  options.bounds = {.use_advanced = true, .extra = extra};
  return options;
}

SearchOptions FullOptions(int k, int delta, ExtraBound extra) {
  SearchOptions options = BoundedOptions(k, delta, extra);
  options.use_heuristic = true;
  return options;
}

}  // namespace fairclique
