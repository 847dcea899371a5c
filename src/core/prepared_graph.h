#ifndef FAIRCLIQUE_CORE_PREPARED_GRAPH_H_
#define FAIRCLIQUE_CORE_PREPARED_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/timer.h"
#include "core/max_fair_clique.h"
#include "graph/coloring.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "reduction/reduce.h"

namespace fairclique {

/// One connected component of the reduced graph, relabeled to local vertex
/// ids, with its coloring and CalColorOD branch ordering memoized. Both are
/// the delta-independent half of the branch stage: they depend only on the
/// component's structure, so a delta-sweep over one PreparedGraph computes
/// them once.
struct PreparedComponent {
  AttributedGraph graph;
  /// Local component vertex id -> id in the *input* graph the plan was
  /// prepared from (the reduction and decomposition maps pre-composed).
  std::vector<VertexId> original_ids;

  /// The component's GreedyColoring, which the root bound reads, and the
  /// rank position of each local vertex in CalColorOD (colorful-core peel
  /// under that coloring) order. Both are computed together on first use
  /// and memoized; thread-safe, so concurrent component tasks of different
  /// queries can share one PreparedComponent.
  ///
  /// Only these two are memoized. The candidate-set policies' rank-space
  /// adjacency (sorted rows / n^2-bit neighbor bitsets) is also
  /// delta-independent but is rebuilt per BranchComponent on purpose: it is
  /// O(E) against an exponential branch stage, while caching it — per
  /// engine — in a plan that lives in an LRU would pin up to ~2 MB per
  /// dense component for as long as the plan stays cached.
  const Coloring& BranchColoring() const;
  const std::vector<uint32_t>& BranchPositions() const;

 private:
  void Memoize() const;

  mutable std::once_flag position_once_;
  mutable Coloring coloring_;
  mutable std::vector<uint32_t> positions_;
};

/// The reusable, delta-independent artifact of the first two search stages:
///
///   Reduce     — EnColorfulCore -> ColorfulSup -> EnColorfulSup (Lemmas
///                2-4) for a fixed (k, ReductionOptions); independent of
///                delta, bounds, engine, and heuristic.
///   Decompose  — connected components of the reduced graph, materialized
///                as local subgraphs sorted largest-first, each carrying
///                its original-id map and (lazily) its branch ordering.
///
/// A PreparedGraph is immutable after PrepareGraph returns (the memoized
/// orderings are internally synchronized) and is shared across queries as
/// shared_ptr<const>; the service-layer PreparedGraphCache keys it by
/// (graph fingerprint, k, reduction options).
///
/// `k` is the plan's own k, which may exceed a request's: a query without a
/// cached plan at its k seeds first and prepares at the lifted k of
/// SeedAndLift, and queries branch at the plan's k.
struct PreparedGraph {
  int k = 1;
  ReductionOptions reductions;
  /// Shape of the input graph the plan was prepared from, for cheap sanity
  /// checks at search time. Vertices may legitimately *grow* past this on a
  /// forwarded plan (appended isolated vertices cannot join a fair clique),
  /// which is why BranchStage checks >=, not ==.
  VertexId source_vertices = 0;
  EdgeId source_edges = 0;

  /// The reduced graph (heuristic priming runs on it) and its vertex map
  /// back to the input graph; original_ids is strictly increasing.
  AttributedGraph reduced;
  std::vector<VertexId> original_ids;
  std::vector<ReductionStageStats> stages;
  /// Wall time PrepareGraph spent (reduction + decomposition), so cache
  /// consumers can report what a hit saved.
  int64_t prepare_micros = 0;

  /// Components with at least 2k vertices (smaller ones cannot hold a fair
  /// clique), largest-first. unique_ptr because the memoization state is
  /// not movable.
  std::vector<std::unique_ptr<PreparedComponent>> components;

  /// True when `options` asks for the (k, reductions) this plan was built
  /// with — the compatibility contract of every Branch-stage entry point.
  bool Compatible(const SearchOptions& options) const;
};

/// Stage 1+2: runs the reduction pipeline and decomposes the survivor into
/// prepared components. Everything delta-dependent is deferred to the
/// Branch stage. `helpers` is passed to ReduceForFairClique; the plan does
/// not depend on it.
std::shared_ptr<const PreparedGraph> PrepareGraph(
    const AttributedGraph& g, int k, const ReductionOptions& reductions,
    ParallelHelpers* helpers = nullptr);

/// The incumbent a query's Branch stage starts from: a HeurRFC clique
/// and/or a caller-supplied warm start, verified against the input graph.
struct IncumbentSeed {
  CliqueResult clique;  // original input-graph ids; may be empty
  int64_t heuristic_micros = 0;
  int64_t heuristic_size = 0;
  /// HeurRFC's color bound on every clique of the graph it ran on; 0 when
  /// HeurRFC did not run (baseline and bounded presets, empty graphs).
  int64_t upper_bound = 0;
  /// Whole seeding time: the heuristic, its bound and the warm-start check.
  int64_t seed_micros = 0;
  /// The clique is the caller's warm start (it beat the heuristic's).
  bool from_warm_start = false;
};

/// Seeds a query that branches on a plan already in hand: HeurRFC (when
/// options.use_heuristic) on the plan's reduced graph, or the warm start
/// when it is larger. `g` is the graph the plan was prepared from.
IncumbentSeed SeedIncumbent(const AttributedGraph& g,
                            const PreparedGraph& prepared,
                            const SearchOptions& options);

/// The smallest attribute count a (k, delta)-fair clique larger than
/// `seed_size` can have: max(k, ceil((seed_size + 1 - delta) / 2)). Such a
/// clique has a + b >= seed_size + 1 and |a - b| <= delta, so
/// 2 min(a, b) >= seed_size + 1 - delta. An empty seed gives k.
int LiftedK(const FairnessParams& params, int64_t seed_size);

/// A seed found before any plan exists, and the k to prepare the plan at.
struct LiftedSeed {
  IncumbentSeed seed;
  int plan_k = 1;  // LiftedK(options.params, |seed|)
  /// HeurRFC ran and |seed| >= seed.upper_bound: no clique of the graph is
  /// larger, so the seed is the answer and nothing needs preparing.
  bool certified = false;
};

/// Seeds a query that has no plan yet: HeurRFC (when options.use_heuristic)
/// on `g` itself, or the warm start when it is larger. When the seed
/// reaches HeurRFC's color bound it is certified: a maximum clique of `g`,
/// hence a maximum fair clique for every k and delta, so the query branches
/// on CertifiedPlan and answers the seed. A larger verified warm start is
/// certified by the same bound, since every clique larger than it is larger
/// than HeurRFC's too. Otherwise every (k, delta)-fair clique that beats
/// the seed is also (plan_k, delta)-fair, so Lemmas 2-4 at plan_k keep it:
/// the query prepares at plan_k, branches at (plan_k, delta) against the
/// seed, and answers the larger of the two. plan_k == k when the seed is
/// empty or delta is too large to lift.
LiftedSeed SeedAndLift(const AttributedGraph& g, const SearchOptions& options);

/// The plan a certified seed branches on: no reduction and no components at
/// (k, reductions), so its Branch stage has no tasks and answers the seed.
std::shared_ptr<const PreparedGraph> CertifiedPlan(
    int k, const ReductionOptions& reductions);

/// Outcome of branching one prepared component.
struct ComponentBranchResult {
  CliqueResult best;  // original input-graph ids; empty when not improved
  SearchStats stats;  // nodes/prunes/caps; search_micros = this component
  bool aborted = false;
};

/// How kAuto chose (or an explicit choice was annotated) for one component:
/// the engine, the bytes the bitset engine's blocked adjacency arena would
/// occupy at this component size, and the memory budget the arena was
/// compared against. Surfaced per component in EXPLAIN plans so dispatch
/// regressions are visible per query.
struct EngineDecision {
  SearchEngine engine = SearchEngine::kVector;
  uint64_t arena_bytes = 0;
  uint64_t budget_bytes = 0;
};

/// The memory budget kAuto allows the bitset engine's adjacency arena: the
/// machine's last-level cache size clamped to [2 MiB, 32 MiB] (8 MiB when
/// the size cannot be determined). The 2 MiB floor keeps every component
/// the old fixed 4096-vertex threshold accepted on the bitset engine.
uint64_t BitsetArenaBudgetBytes();

/// Resolves the engine for a component of `component_vertices` vertices:
/// kAuto picks the bitset engine whenever its arena fits the budget, an
/// explicit engine choice passes through (with the arena/budget numbers
/// still filled in for observability).
EngineDecision ResolveEngineDecision(SearchEngine engine,
                                     VertexId component_vertices);

/// Protocol/plan name of an engine: "auto" | "vector" | "bitset".
const char* SearchEngineName(SearchEngine engine);

/// Stage 3 for a single component: ordered branch-and-bound over
/// prepared.components[component] under `options` (which must be
/// Compatible). One kernel serves both engines; the engine only picks the
/// candidate-set representation. `floor` is the query's shared
/// incumbent-size floor; the component is skipped outright when it is too
/// small to beat max(2k, floor + 1) at call time. Thread-safe across
/// components, which is what lets a scheduler interleave components of many
/// queries on one worker pool.
ComponentBranchResult BranchComponent(const PreparedGraph& prepared,
                                      size_t component,
                                      const SearchOptions& options,
                                      const Deadline& deadline,
                                      std::atomic<int64_t>* floor);

/// Deterministic reduction of per-component outcomes into one SearchResult:
/// counters and per-component branch times are *summed in component order*
/// (never last-writer-wins, so repeated runs aggregate identically no
/// matter how the scheduler interleaved the tasks), the best clique wins by
/// size with the seed as the baseline, and the clique is sorted. The caller
/// owns the wall-clock fields (reduce/search/total_micros).
SearchResult AggregatePreparedSearch(
    const PreparedGraph& prepared, const IncumbentSeed& seed,
    std::span<const ComponentBranchResult> results);

/// One query's Branch stage as a set of component tasks: the seeded
/// incumbent, the shared incumbent-size floor, the components selected
/// against the seed, and one result slot per task. It is the only Branch
/// scheduler: SearchPreparedGraph runs the tasks in order on the calling
/// thread, and the service's QueryExecutor fans them out onto its worker
/// pool, interleaved with other queries' tasks.
///
/// Every task must run exactly once, on any thread, concurrently or not;
/// Aggregate() is valid once they all have. `prepared` must outlive the
/// stage.
class BranchStage {
 public:
  /// Starts from `seed` (SeedIncumbent or SeedAndLift) and keeps the
  /// components large enough to beat it. `options` must be Compatible with
  /// `prepared`; `deadline` bounds every task.
  BranchStage(const PreparedGraph& prepared, const SearchOptions& options,
              const Deadline& deadline, IncumbentSeed seed);

  BranchStage(const BranchStage&) = delete;
  BranchStage& operator=(const BranchStage&) = delete;

  size_t num_tasks() const { return components_.size(); }
  /// prepared.components index of each task, ascending (largest first).
  std::span<const size_t> components() const { return components_; }
  /// Per-task outcomes, indexed like components().
  std::span<const ComponentBranchResult> results() const { return results_; }
  const IncumbentSeed& seed() const { return seed_; }

  /// Routes live progress to `progress` (not owned, non-null) instead of
  /// options.progress and publishes the seed and the initial upper bound.
  /// Call before any task runs; it lets a caller size the progress record
  /// by num_tasks().
  void AttachProgress(obs::QueryProgress* progress);

  /// Branches task `task`'s component against the shared floor. After any
  /// task was stopped by a safety valve, tasks that have not started yet
  /// are skipped. Returns true for exactly one call: the one that finished
  /// the stage's last task.
  bool RunTask(size_t task);

  /// AggregatePreparedSearch over the seed and every task's result.
  SearchResult Aggregate() const;

 private:
  const PreparedGraph& prepared_;
  SearchOptions options_;
  const Deadline deadline_;
  IncumbentSeed seed_;
  std::vector<size_t> components_;
  std::vector<ComponentBranchResult> results_;
  /// Per-task completion flags, for the progress upper bound.
  std::vector<std::atomic<bool>> done_;
  std::atomic<int64_t> floor_{0};
  std::atomic<size_t> remaining_{0};
  std::atomic<bool> stopped_{false};
};

/// The full Branch stage on the calling thread: a BranchStage started from
/// `seed` whose tasks run in order, then aggregated.
SearchResult SearchPreparedGraph(const PreparedGraph& prepared,
                                 const SearchOptions& options,
                                 IncumbentSeed seed);

/// SeedIncumbent, then the Branch stage above. Same answer size as
/// FindMaximumFairClique(g, options), which prepares at the lifted k
/// instead.
SearchResult SearchPreparedGraph(const AttributedGraph& g,
                                 const PreparedGraph& prepared,
                                 const SearchOptions& options);

/// The time budget left for the Branch stage after `elapsed_seconds` were
/// already spent (preparation, cache probes): callers staging the search
/// themselves use this to keep the overall limit equal to the monolith's,
/// where one clock spanned reduction + branch. 0 stays 0 (= unlimited); an
/// exhausted budget returns a tiny positive value so the branch kernels
/// abort at their first deadline check instead of running unlimited.
inline double RemainingTimeBudget(double limit_seconds,
                                  double elapsed_seconds) {
  if (limit_seconds <= 0.0) return limit_seconds;
  double remaining = limit_seconds - elapsed_seconds;
  return remaining > 1e-9 ? remaining : 1e-9;
}

}  // namespace fairclique

#endif  // FAIRCLIQUE_CORE_PREPARED_GRAPH_H_
