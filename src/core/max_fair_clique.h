#ifndef FAIRCLIQUE_CORE_MAX_FAIR_CLIQUE_H_
#define FAIRCLIQUE_CORE_MAX_FAIR_CLIQUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "bounds/upper_bounds.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "reduction/reduce.h"

namespace fairclique {

namespace obs {
class QueryProgress;  // obs/progress.h; optional live-progress sink
}  // namespace obs

/// Candidate-set representation of the branch kernel inside a connected
/// component. There is one kernel (every prune rule written once), so the
/// engines produce identical answers and node counts; they differ only in
/// speed and memory.
enum class SearchEngine {
  kAuto,    // Bitset while its adjacency arena fits the cache-sized memory
            // budget (see BitsetArenaBudgetBytes), vectors beyond.
  kVector,  // Sorted candidate vectors; O(|C| + deg) child construction.
  kBitset,  // Word-parallel candidate bitsets; fastest on dense residues.
};

/// Configuration of the maximum relative fair clique search (Algorithm 2
/// with the pruning arsenal of Sections III-V). The branch order is always
/// CalColorOD and the configured bounds always apply once per component, at
/// its root (BranchComponent in core/prepared_graph.cc); neither is an
/// option.
struct SearchOptions {
  FairnessParams params;

  /// Branch kernel selection (see SearchEngine).
  SearchEngine engine = SearchEngine::kAuto;

  /// Graph reduction stages run before the search (Alg. 2 lines 1-3). All
  /// three on = the paper's MaxRFC; toggled off for ablation.
  ReductionOptions reductions;

  /// Upper bounds evaluated on each component before it is branched; a
  /// component whose bound cannot beat the target is skipped whole.
  /// `use_advanced = false` and `extra = kNone` reproduces the MaxRFC
  /// baseline (only the trivial |R| + |C| prune of Alg. 3 line 19, which is
  /// always on).
  UpperBoundConfig bounds{.use_advanced = false, .extra = ExtraBound::kNone};

  /// Prime the incumbent with HeurRFC before branching ("MaxRFC+ub+HeurRFC"
  /// in the paper's Fig. 6/7).
  bool use_heuristic = false;

  /// Optional warm start: a known fair clique of the input graph (original
  /// vertex ids), e.g. a cached result that survived a graph update. It is
  /// revalidated with the verifier before use and silently ignored when
  /// invalid, so a stale set can cost only time, never correctness. A valid
  /// warm start primes the incumbent like the heuristic does: the answer
  /// *size* is unchanged (the search still proves optimality), only the
  /// returned witness may differ — which is why the field is excluded from
  /// CanonicalOptionsKey.
  std::vector<VertexId> warm_start;

  /// Safety valves: stop and mark the result incomplete after this many
  /// branch nodes / seconds (0 = unlimited). The node limit applies per
  /// component; once any component exhausts a valve, components that have
  /// not started yet are skipped.
  uint64_t node_limit = 0;
  double time_limit_seconds = 0.0;

  /// Optional live-progress sink: when set, the branch kernels publish node
  /// counts at the 1024-node deadline-check cadence and new incumbents as
  /// they are recorded (relaxed atomics; see obs/progress.h). Purely
  /// observational — never consulted by the search — and, like warm_start,
  /// excluded from CanonicalOptionsKey. Not owned.
  obs::QueryProgress* progress = nullptr;

  /// Test/ops hook invoked at the same 1024-node cadence, before the
  /// progress publish and deadline check. The watchdog tests use it to
  /// freeze a search deterministically mid-Branch (a blocking tick stops
  /// both node publishing and the deadline check — exactly the "wedged
  /// kernel" failure mode the watchdog exists to catch). Like `progress`,
  /// observational only and excluded from CanonicalOptionsKey. Not owned.
  const std::function<void()>* branch_tick = nullptr;
};

/// Why a search stopped before proving optimality. Ordered by precedence:
/// when components stop for different reasons, the aggregate keeps the
/// largest value (a wall-clock stop subsumes a node-budget stop).
enum class StopReason : uint8_t {
  kNone = 0,       // ran to completion (stats.completed == true)
  kNodeLimit = 1,  // SearchOptions::node_limit exhausted
  kTimeLimit = 2,  // SearchOptions::time_limit_seconds / deadline expired
};

/// Wire/log name of a stop reason: "", "node_limit", "time_limit".
const char* StopReasonName(StopReason reason);

/// Search telemetry reported by the benchmark harnesses.
struct SearchStats {
  uint64_t nodes = 0;            // Branch invocations
  uint64_t bound_prunes = 0;     // Components cut at their root by the
                                 // configured upper bounds
  uint64_t size_prunes = 0;      // Branches cut by |R| + |C| (Lemma 5)
  uint64_t attr_prunes = 0;      // Branches cut by attribute infeasibility
  uint64_t cap_removals = 0;     // Candidates dropped by the delta cap
  int64_t reduce_micros = 0;
  int64_t heuristic_micros = 0;
  int64_t search_micros = 0;
  /// Sum of per-component branch times, accumulated in component order (not
  /// completion order), so multi-threaded runs aggregate deterministically
  /// instead of reflecting whichever component finished last. Exceeds
  /// search_micros (wall clock) when components ran in parallel.
  int64_t component_search_micros = 0;
  int64_t total_micros = 0;
  bool completed = true;         // false when a limit stopped the search
  /// Which safety valve stopped the search (kNone iff completed). Kept
  /// alongside `completed` so existing consumers keep their bool while the
  /// service can attribute the miss (deadline vs node budget).
  StopReason stop_reason = StopReason::kNone;
  int64_t heuristic_size = 0;    // |HeurRFC clique| when priming is enabled
  std::vector<ReductionStageStats> reduction_stages;
};

/// Result: the maximum relative fair clique in original vertex ids (empty
/// when none exists) and the run's statistics.
struct SearchResult {
  CliqueResult clique;
  SearchStats stats;
};

/// Finds a maximum relative fair clique of `g` under `options.params`.
///
/// Implementation: reduction pipeline -> per-connected-component ordered
/// branch-and-bound in colorful-core peeling order (CalColorOD), checking
/// fairness at every node and applying the paper's prunes in their sound
/// forms (bounds/upper_bounds.h). It does not alternate attributes the way
/// the printed Algorithm 3 does: that order filter can miss the optimum, as
/// the K4 case in tests/max_fair_clique_test.cpp shows. Exact: verified
/// against the independent Bron-Kerbosch oracle in the same file.
///
/// This is a thin wrapper over core/prepared_graph.h. SeedAndLift seeds
/// the incumbent on `g` (HeurRFC when use_heuristic, or the warm start) and
/// lifts k to k' = max(k, ceil((|seed| + 1 - delta) / 2)): any fair clique
/// larger than the seed has at least k' of each attribute. When the seed
/// reaches HeurRFC's color bound it is a maximum clique of `g` and is
/// returned as it is: sorted ids, the heuristic_* stats, no reduction
/// stages and no branch nodes. Otherwise PrepareGraph (Reduce + Decompose,
/// delta-independent) runs at k', and the Branch stage searches at
/// (k', delta) against the seed. The answer's size is that of a search at
/// k; its witness may be a different maximum clique.
/// Workloads that sweep delta/bounds on one (graph, k) should prepare once
/// and branch per query instead of paying the reduction every time.
SearchResult FindMaximumFairClique(const AttributedGraph& g,
                                   const SearchOptions& options);

/// Convenience presets matching the paper's three algorithm families.
SearchOptions BaselineOptions(int k, int delta);              // MaxRFC
SearchOptions BoundedOptions(int k, int delta,
                             ExtraBound extra);               // MaxRFC+ub
SearchOptions FullOptions(int k, int delta, ExtraBound extra);// +HeurRFC

}  // namespace fairclique

#endif  // FAIRCLIQUE_CORE_MAX_FAIR_CLIQUE_H_
