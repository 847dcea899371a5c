#include "core/prepared_graph.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <numeric>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/bitset.h"
#include "common/logging.h"
#include "core/heuristics.h"
#include "core/verifier.h"
#include "graph/coloring.h"
#include "graph/cores.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "reduction/colorful_core.h"

namespace fairclique {

namespace {

// Lock-free monotone max on the shared incumbent-size floor.
void RaiseFloor(std::atomic<int64_t>* floor, int64_t value) {
  int64_t cur = floor->load(std::memory_order_relaxed);
  while (cur < value &&
         !floor->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Rank positions for the configured branch ordering.
std::vector<uint32_t> ComputeBranchPositions(const AttributedGraph& comp,
                                             BranchOrder order) {
  switch (order) {
    case BranchOrder::kColorfulCore: {
      Coloring coloring = GreedyColoring(comp);
      return ComputeColorfulCores(comp, coloring).position;
    }
    case BranchOrder::kDegeneracy:
      return ComputeCores(comp).position;
    case BranchOrder::kDegree: {
      // Stable ascending-degree ranks.
      std::vector<VertexId> verts(comp.num_vertices());
      std::iota(verts.begin(), verts.end(), 0);
      std::stable_sort(verts.begin(), verts.end(),
                       [&comp](VertexId a, VertexId b) {
                         return comp.degree(a) < comp.degree(b);
                       });
      std::vector<uint32_t> position(comp.num_vertices());
      for (uint32_t i = 0; i < verts.size(); ++i) position[verts[i]] = i;
      return position;
    }
  }
  return {};
}

// Candidate-set policies for the one Branch kernel below. A policy owns a
// component's rank-space adjacency and builds child sets; the kernel owns
// every prune rule, so the two representations cannot drift apart. A
// policy provides:
//
//   Set                        candidate set over ranks
//   Set MakeSet()              empty set, for the per-depth scratch pool
//   void FillAll(Set&)         every rank of the component
//   size_t First(const Set&)   cursor at the lowest-ranked candidate
//   bool Done(const Set&, cursor), uint32_t Pivot(const Set&, cursor)
//   AttrCounts Expand(Set& cand, size_t& cursor, Set& child)
//        child = the candidates after the pivot at `cursor` that are
//        adjacent to it, with their attribute counts; advances `cursor`
//   void Drop(Set& cand, Attribute x)   removes every x-vertex
//   ForEach(const Set&, fn)    visits members in ascending rank
//
// Expand and Drop may consume `cand` destructively: the kernel never reads
// a candidate set after the node that owns it returns.

// Sorted rank vectors: O(|C| + deg) child construction by merging with a
// sorted adjacency row. For components whose adjacency bitsets would
// outgrow the cache budget.
class SortedVectorSets {
 public:
  using Set = std::vector<uint32_t>;

  SortedVectorSets(const AttributedGraph& comp,
                   const std::vector<uint32_t>& rank_of,
                   const std::vector<Attribute>& attr)
      : attr_(attr), adj_(comp.num_vertices()) {
    for (VertexId v = 0; v < comp.num_vertices(); ++v) {
      std::vector<uint32_t>& row = adj_[rank_of[v]];
      row.reserve(comp.degree(v));
      for (VertexId w : comp.neighbors(v)) row.push_back(rank_of[w]);
      std::sort(row.begin(), row.end());
    }
  }

  Set MakeSet() const { return {}; }
  void FillAll(Set& s) const {
    s.resize(adj_.size());
    std::iota(s.begin(), s.end(), 0);
  }
  static size_t First(const Set&) { return 0; }
  static bool Done(const Set& s, size_t cursor) { return cursor >= s.size(); }
  static uint32_t Pivot(const Set& s, size_t cursor) { return s[cursor]; }
  template <typename Fn>
  static void ForEach(const Set& s, Fn&& fn) {
    for (uint32_t r : s) fn(r);
  }

  // fclint: hot-path-begin(branch_kernel)
  AttrCounts Expand(Set& cand, size_t& cursor, Set& child) const {
    const std::span<const uint32_t> nbrs = adj_[cand[cursor]];
    AttrCounts cnt;
    child.clear();
    size_t a = cursor + 1, b = 0;
    while (a < cand.size() && b < nbrs.size()) {
      if (cand[a] < nbrs[b]) {
        ++a;
      } else if (cand[a] > nbrs[b]) {
        ++b;
      } else {
        child.push_back(cand[a]);
        cnt[attr_[cand[a]]]++;
        ++a;
        ++b;
      }
    }
    ++cursor;
    return cnt;
  }

  void Drop(Set& cand, Attribute x) const {
    std::erase_if(cand, [&](uint32_t r) { return attr_[r] == x; });
  }
  // fclint: hot-path-end

 private:
  const std::vector<Attribute>& attr_;
  std::vector<std::vector<uint32_t>> adj_;
};

// Word-parallel bitsets for dense components. Adjacency rows live in one
// contiguous cache-line-aligned BitsetArena (rows padded to 64 bytes), so
// the candidate∩row intersections of a branch walk dense memory, and the
// child's per-attribute counts fall out of the fused dual-count
// intersection (runtime-dispatched scalar/AVX2/NEON, see
// common/bitset_simd.h) in the same pass that builds it.
class BitsetSets {
 public:
  using Set = Bitset;

  BitsetSets(const AttributedGraph& comp, const std::vector<uint32_t>& rank_of,
             const std::vector<Attribute>& attr)
      : n_(comp.num_vertices()), nbr_(n_, n_) {
    masks_[0] = Bitset(n_);
    masks_[1] = Bitset(n_);
    for (VertexId v = 0; v < n_; ++v) {
      for (VertexId w : comp.neighbors(v)) {
        nbr_.SetBit(rank_of[v], rank_of[w]);
      }
    }
    for (uint32_t r = 0; r < n_; ++r) masks_[AttrIndex(attr[r])].Set(r);
  }

  Set MakeSet() const { return Bitset(n_); }
  void FillAll(Set& s) const { s.SetAll(); }
  static size_t First(const Set& s) { return s.NextSetBit(0); }
  static bool Done(const Set& s, size_t cursor) { return cursor >= s.size(); }
  static uint32_t Pivot(const Set&, size_t cursor) {
    return static_cast<uint32_t>(cursor);
  }
  template <typename Fn>
  static void ForEach(const Set& s, Fn&& fn) {
    s.ForEachSetBit([&](size_t r) { fn(static_cast<uint32_t>(r)); });
  }

  // fclint: hot-path-begin(branch_kernel)
  AttrCounts Expand(Set& cand, size_t& cursor, Set& child) const {
    const size_t u = cursor;
    // "Rest" form of the ordered expansion: clearing the pivot makes
    // cand = {bits > u still eligible} (every bit < u was a pivot
    // already), so cand & nbr[u] equals the textbook
    // (cand & nbr[u]).ResetBelow(u + 1) without the extra pass.
    cand.Reset(u);
    cursor = cand.NextSetBit(u + 1);
    // Pull the next pivot's adjacency row toward L1 while this child's
    // subtree runs; by the time the loop comes back around it is resident.
    if (cursor < cand.size()) nbr_.PrefetchRow(cursor);
    simd::DualCount dc =
        child.AssignIntersectDual(cand, nbr_.row(u), masks_[0]);
    AttrCounts cnt;
    cnt[Attribute::kA] = static_cast<int64_t>(dc.in_mask);
    // Every vertex holds exactly one of the two attributes, so the B count
    // is the complement within the intersection.
    cnt[Attribute::kB] = static_cast<int64_t>(dc.total - dc.in_mask);
    return cnt;
  }

  void Drop(Set& cand, Attribute x) const { cand -= masks_[AttrIndex(x)]; }
  // fclint: hot-path-end

 private:
  const VertexId n_;
  BitsetArena nbr_;
  Bitset masks_[2];  // ranks holding attribute A / B
};

// rank -> attribute for a component relabeled by `rank_of`.
std::vector<Attribute> AttributesByRank(const AttributedGraph& comp,
                                        const std::vector<uint32_t>& rank_of) {
  std::vector<Attribute> attr(comp.num_vertices());
  for (VertexId v = 0; v < comp.num_vertices(); ++v) {
    attr[rank_of[v]] = comp.attribute(v);
  }
  return attr;
}

// Branch-and-bound over one connected component, with vertices relabeled to
// their rank under the configured branch order (CalColorOD by default):
// candidate sets only ever contain ranks greater than the last added
// vertex, so every clique of the component is enumerated exactly once,
// from its lowest-ranked vertex. `Candidates` is one of the policies above.
template <typename Candidates>
class ComponentSearch {
 public:
  using Set = typename Candidates::Set;

  ComponentSearch(const PreparedComponent& comp,
                  const std::vector<uint32_t>& rank_of,
                  const SearchOptions& options, const Deadline& deadline,
                  std::atomic<int64_t>* floor, ComponentBranchResult* out)
      : comp_(comp),
        options_(options),
        deadline_(deadline),
        floor_(floor),
        out_(*out),
        stats_(out->stats),
        vertex_at_(comp.graph.num_vertices()),
        attr_(AttributesByRank(comp.graph, rank_of)),
        sets_(comp.graph, rank_of, attr_) {
    for (VertexId v = 0; v < comp.graph.num_vertices(); ++v) {
      vertex_at_[rank_of[v]] = v;
    }
  }

  void Run() {
    AttrCounts cnt;
    for (Attribute a : attr_) cnt[a]++;
    Set& all = ScratchAt(0);
    sets_.FillAll(all);
    Branch(all, cnt, 0);
    out_.aborted = aborted_;
  }

 private:
  // Known incumbent size: the larger of this component's best and the
  // query's cross-component floor (shared by concurrent tasks).
  int64_t Known() const {
    int64_t local = static_cast<int64_t>(out_.best.size());
    if (floor_ != nullptr) {
      local = std::max(local, floor_->load(std::memory_order_relaxed));
    }
    return local;
  }

  // Minimum size a new clique must reach: max(2k, |best| + 1).
  int64_t Target() const {
    return std::max<int64_t>(2 * options_.params.k, Known() + 1);
  }

  // `cand` belongs to the caller and may be consumed (see the policy
  // contract); this node's children are built in ScratchAt(depth + 1).
  // fclint: hot-path-begin(branch_kernel)
  // The branch-and-bound inner loop: no allocation expressions, no string
  // building, no logging, no lock acquisition. (push_back into the
  // pre-sized incumbent / prefix vectors is the one sanctioned container
  // use.) tools/lint/fclint.py enforces this region.
  void Branch(Set& cand, AttrCounts cand_cnt, int depth) {
    if (aborted_) return;
    stats_.nodes++;
    if (options_.node_limit != 0 && stats_.nodes > options_.node_limit) {
      stats_.stop_reason = StopReason::kNodeLimit;
      aborted_ = true;
      return;
    }
    if ((stats_.nodes & 0x3ff) == 0) {
      // The deadline-check cadence doubles as the live-progress cadence:
      // one predictable branch per kilonode either way.
      if (options_.branch_tick != nullptr) (*options_.branch_tick)();
      if (options_.progress != nullptr) options_.progress->AddNodes(1024);
      if (deadline_.Expired()) {
        stats_.stop_reason = StopReason::kTimeLimit;
        aborted_ = true;
        return;
      }
    }
    // Every node's R is a clique reached exactly once; record it when fair.
    if (static_cast<int64_t>(r_.size()) > Known() &&
        options_.params.Satisfied(r_cnt_)) {
      out_.best.vertices.clear();
      for (uint32_t r : r_) {
        out_.best.vertices.push_back(comp_.original_ids[vertex_at_[r]]);
      }
      out_.best.attr_counts = r_cnt_;
      if (floor_ != nullptr) {
        RaiseFloor(floor_, static_cast<int64_t>(r_.size()));
      }
      if (options_.progress != nullptr) {
        options_.progress->NoteIncumbent(static_cast<int64_t>(r_.size()));
      }
    }
    int64_t cand_size = cand_cnt.Total();
    if (cand_size == 0) return;
    // Size prune (Lemma 5 / Alg. 3 line 19).
    if (static_cast<int64_t>(r_.size()) + cand_size < Target()) {
      stats_.size_prunes++;
      return;
    }
    // Attribute feasibility (Alg. 3 lines 20-23): both attributes must be
    // able to reach k.
    if (r_cnt_.a() + cand_cnt.a() < options_.params.k ||
        r_cnt_.b() + cand_cnt.b() < options_.params.k) {
      stats_.attr_prunes++;
      return;
    }
    // Delta cap (sound form of Alg. 3 lines 4-8): when attribute x already
    // matches the best the other side can reach plus delta, no x-vertex can
    // be added to any fair completion.
    for (Attribute x : {Attribute::kA, Attribute::kB}) {
      Attribute y = Other(x);
      if (cand_cnt[x] > 0 &&
          r_cnt_[x] >= r_cnt_[y] + cand_cnt[y] + options_.params.delta) {
        stats_.cap_removals += static_cast<uint64_t>(cand_cnt[x]);
        sets_.Drop(cand, x);
        cand_cnt[x] = 0;
        cand_size = cand_cnt.Total();
        // Re-check the size prune after dropping candidates.
        if (static_cast<int64_t>(r_.size()) + cand_size < Target()) {
          stats_.size_prunes++;
          return;
        }
      }
    }
    // Configured upper bounds on the induced subgraph of R ∪ C, at shallow
    // depths only (building the subgraph is O(E(G')) per node).
    if (depth < options_.bound_depth &&
        (options_.bounds.use_advanced ||
         options_.bounds.extra != ExtraBound::kNone)) {
      if (UpperBoundOf(cand, cand_size) < Target()) {
        stats_.bound_prunes++;
        return;
      }
    }
    // Expand each candidate in rank order; taking only later candidates
    // keeps every clique enumerated exactly once.
    int64_t remaining = cand_size;
    Set& next = ScratchAt(depth + 1);
    for (size_t cursor = sets_.First(cand); !sets_.Done(cand, cursor);
         --remaining) {
      if (aborted_) return;
      if (static_cast<int64_t>(r_.size()) + remaining < Target()) {
        stats_.size_prunes++;
        break;  // Later children only get smaller.
      }
      const uint32_t u = sets_.Pivot(cand, cursor);
      AttrCounts next_cnt = sets_.Expand(cand, cursor, next);
      r_.push_back(u);
      r_cnt_[attr_[u]]++;
      Branch(next, next_cnt, depth + 1);
      r_.pop_back();
      r_cnt_[attr_[u]]--;
    }
  }
  // fclint: hot-path-end

  // One scratch set per recursion depth, reused across every sibling at
  // that depth. A deque keeps references stable while deeper levels append.
  Set& ScratchAt(int depth) {
    while (static_cast<size_t>(depth) >= scratch_.size()) {
      scratch_.push_back(sets_.MakeSet());
    }
    return scratch_[static_cast<size_t>(depth)];
  }

  // Evaluates the configured bound on the subgraph induced by R ∪ C.
  int64_t UpperBoundOf(const Set& cand, int64_t cand_size) {
    std::vector<VertexId> verts;
    verts.reserve(r_.size() + static_cast<size_t>(cand_size));
    for (uint32_t r : r_) verts.push_back(vertex_at_[r]);
    sets_.ForEach(cand, [&](uint32_t r) { verts.push_back(vertex_at_[r]); });
    AttributedGraph sub = comp_.graph.InducedSubgraph(verts);
    return ComputeUpperBound(sub, options_.params.delta, options_.bounds);
  }

  const PreparedComponent& comp_;
  const SearchOptions& options_;
  const Deadline& deadline_;
  std::atomic<int64_t>* const floor_;
  ComponentBranchResult& out_;
  SearchStats& stats_;
  bool aborted_ = false;

  std::vector<VertexId> vertex_at_;  // rank -> local vertex
  std::vector<Attribute> attr_;      // rank -> attribute
  const Candidates sets_;
  std::deque<Set> scratch_;
  std::vector<uint32_t> r_;  // Current clique, as ranks.
  AttrCounts r_cnt_;
};

// Bytes the bitset engine's blocked adjacency arena takes for an n-vertex
// component: n rows of n bits, each row padded to a whole cache line.
uint64_t ArenaBytesFor(VertexId n) {
  uint64_t words_per_row =
      ((static_cast<uint64_t>(n) + 63) / 64 + 7) & ~uint64_t{7};
  return static_cast<uint64_t>(n) * words_per_row * sizeof(uint64_t);
}

}  // namespace

const std::vector<uint32_t>& PreparedComponent::BranchPositions(
    BranchOrder order) const {
  int i = static_cast<int>(order);
  std::call_once(position_once_[i], [this, order, i] {
    positions_[i] = ComputeBranchPositions(graph, order);
  });
  return positions_[i];
}

bool PreparedGraph::Compatible(const SearchOptions& options) const {
  return options.params.k == k &&
         options.reductions.use_en_colorful_core ==
             reductions.use_en_colorful_core &&
         options.reductions.use_colorful_sup == reductions.use_colorful_sup &&
         options.reductions.use_en_colorful_sup ==
             reductions.use_en_colorful_sup;
}

uint64_t BitsetArenaBudgetBytes() {
  static const uint64_t budget = [] {
    constexpr uint64_t kMiB = 1024 * 1024;
    // Explicit override wins (benchmarks and tests pin the decision).
    if (const char* env = std::getenv("FAIRCLIQUE_BITSET_BUDGET_BYTES")) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && v > 0) return static_cast<uint64_t>(v);
    }
    // Otherwise size to the last-level cache: the arena should mostly live
    // there during a branch. Clamped so exotic cache reports cannot make
    // kAuto wildly aggressive or refuse components the old fixed threshold
    // (4096 vertices = exactly 2 MiB of arena) accepted.
    uint64_t cache = 0;
#if defined(_SC_LEVEL3_CACHE_SIZE)
    {
      long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
      if (v > 0) cache = static_cast<uint64_t>(v);
    }
#endif
#if defined(_SC_LEVEL2_CACHE_SIZE)
    if (cache == 0) {
      long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
      if (v > 0) cache = static_cast<uint64_t>(v);
    }
#endif
    if (cache == 0) return uint64_t{8} * kMiB;
    return std::min(uint64_t{32} * kMiB, std::max(uint64_t{2} * kMiB, cache));
  }();
  return budget;
}

EngineDecision ResolveEngineDecision(SearchEngine engine,
                                     VertexId component_vertices) {
  EngineDecision d;
  d.arena_bytes = ArenaBytesFor(component_vertices);
  d.budget_bytes = BitsetArenaBudgetBytes();
  if (engine != SearchEngine::kAuto) {
    d.engine = engine;
  } else {
    d.engine = d.arena_bytes <= d.budget_bytes ? SearchEngine::kBitset
                                               : SearchEngine::kVector;
  }
  return d;
}

SearchEngine ResolveEngine(SearchEngine engine, VertexId component_vertices) {
  return ResolveEngineDecision(engine, component_vertices).engine;
}

const char* SearchEngineName(SearchEngine engine) {
  switch (engine) {
    case SearchEngine::kAuto: return "auto";
    case SearchEngine::kVector: return "vector";
    case SearchEngine::kBitset: return "bitset";
  }
  return "auto";
}

std::shared_ptr<const PreparedGraph> PrepareGraph(
    const AttributedGraph& g, int k, const ReductionOptions& reductions,
    ParallelHelpers* helpers) {
  FC_CHECK(k >= 1) << "fairness parameter k must be >= 1";
  obs::ProfileScope profile_scope("PrepareGraph");
  WallTimer timer;
  auto prepared = std::make_shared<PreparedGraph>();
  prepared->k = k;
  prepared->reductions = reductions;
  prepared->source_vertices = g.num_vertices();
  prepared->source_edges = g.num_edges();

  ReductionPipelineResult reduced =
      ReduceForFairClique(g, k, reductions, helpers);
  prepared->reduced = std::move(reduced.reduced);
  prepared->original_ids = std::move(reduced.original_ids);
  prepared->stages = std::move(reduced.stages);

  // Decompose: components below 2k vertices cannot hold a fair clique
  // (each attribute needs >= k members), so they never become tasks.
  std::vector<std::vector<VertexId>> components =
      prepared->reduced.ConnectedComponents();
  std::sort(components.begin(), components.end(),
            [](const auto& a, const auto& b) { return a.size() > b.size(); });
  for (std::vector<VertexId>& comp_vertices : components) {
    if (static_cast<int64_t>(comp_vertices.size()) < 2 * k) continue;
    auto comp = std::make_unique<PreparedComponent>();
    std::vector<VertexId> reduced_ids;
    comp->graph = prepared->reduced.InducedSubgraph(comp_vertices,
                                                    &reduced_ids);
    comp->original_ids.reserve(reduced_ids.size());
    for (VertexId r : reduced_ids) {
      comp->original_ids.push_back(prepared->original_ids[r]);
    }
    prepared->components.push_back(std::move(comp));
  }
  prepared->prepare_micros = timer.ElapsedMicros();
  return prepared;
}

IncumbentSeed SeedIncumbent(const AttributedGraph& g,
                            const PreparedGraph& prepared,
                            const SearchOptions& options) {
  obs::ProfileScope profile_scope("SeedIncumbent");
  IncumbentSeed seed;
  const AttributedGraph& rg = prepared.reduced;
  if (options.use_heuristic && rg.num_vertices() > 0) {
    WallTimer heur_timer;
    HeuristicOptions hopts{.params = options.params};
    HeuristicResult heur = HeurRFC(rg, hopts);
    seed.heuristic_micros = heur_timer.ElapsedMicros();
    seed.heuristic_size = static_cast<int64_t>(heur.clique.size());
    if (!heur.clique.empty()) {
      seed.clique.attr_counts = heur.clique.attr_counts;
      for (VertexId v : heur.clique.vertices) {
        seed.clique.vertices.push_back(prepared.original_ids[v]);
      }
    }
  }
  // Optional warm start from a caller-supplied known fair clique (dynamic
  // re-queries seed the previous epoch's answer). Verified against the
  // *original* graph — reduction may have pruned its vertices, but the
  // incumbent only flows into pruning through its size.
  if (static_cast<int64_t>(options.warm_start.size()) >
          static_cast<int64_t>(seed.clique.size()) &&
      VerifyFairClique(g, options.warm_start, options.params).ok()) {
    seed.clique.vertices = options.warm_start;
    seed.clique.attr_counts = CountAttributes(g, options.warm_start);
  }
  return seed;
}

ComponentBranchResult BranchComponent(const PreparedGraph& prepared,
                                      size_t component,
                                      const SearchOptions& options,
                                      const Deadline& deadline,
                                      std::atomic<int64_t>* floor) {
  FC_CHECK(prepared.Compatible(options))
      << "BranchComponent: options (k, reductions) do not match the plan";
  ComponentBranchResult out;
  const PreparedComponent& comp = *prepared.components[component];
  int64_t known =
      floor != nullptr ? floor->load(std::memory_order_relaxed) : 0;
  if (static_cast<int64_t>(comp.graph.num_vertices()) <
      std::max<int64_t>(2 * options.params.k, known + 1)) {
    return out;  // Component too small to beat the incumbent.
  }
  obs::ProfileScope profile_scope("BranchComponent");
  WallTimer timer;
  const std::vector<uint32_t>& rank_of = comp.BranchPositions(options.order);
  if (ResolveEngine(options.engine, comp.graph.num_vertices()) ==
      SearchEngine::kBitset) {
    ComponentSearch<BitsetSets>(comp, rank_of, options, deadline, floor, &out)
        .Run();
  } else {
    ComponentSearch<SortedVectorSets>(comp, rank_of, options, deadline, floor,
                                      &out)
        .Run();
  }
  out.stats.search_micros = timer.ElapsedMicros();
  return out;
}

SearchResult AggregatePreparedSearch(
    const PreparedGraph& prepared, const IncumbentSeed& seed,
    std::span<const ComponentBranchResult> results) {
  SearchResult result;
  result.clique = seed.clique;
  result.stats.heuristic_micros = seed.heuristic_micros;
  result.stats.heuristic_size = seed.heuristic_size;
  result.stats.reduction_stages = prepared.stages;
  for (const ComponentBranchResult& task : results) {
    result.stats.nodes += task.stats.nodes;
    result.stats.bound_prunes += task.stats.bound_prunes;
    result.stats.size_prunes += task.stats.size_prunes;
    result.stats.attr_prunes += task.stats.attr_prunes;
    result.stats.cap_removals += task.stats.cap_removals;
    result.stats.component_search_micros += task.stats.search_micros;
    if (task.aborted) result.stats.completed = false;
    result.stats.stop_reason =
        std::max(result.stats.stop_reason, task.stats.stop_reason);
    if (task.best.size() > result.clique.size()) {
      result.clique = task.best;
    }
  }
  std::sort(result.clique.vertices.begin(), result.clique.vertices.end());
  return result;
}

BranchStage::BranchStage(const AttributedGraph& g,
                         const PreparedGraph& prepared,
                         const SearchOptions& options,
                         const Deadline& deadline)
    : prepared_(prepared),
      options_(options),
      deadline_(deadline) {
  FC_CHECK(options.params.k >= 1) << "fairness parameter k must be >= 1";
  FC_CHECK(options.params.delta >= 0) << "delta must be >= 0";
  FC_CHECK(prepared.Compatible(options))
      << "BranchStage: options (k, reductions) do not match the plan";
  FC_CHECK(g.num_vertices() >= prepared.source_vertices)
      << "BranchStage: graph is smaller than the plan's source";
  seed_ = SeedIncumbent(g, prepared, options);
  floor_.store(static_cast<int64_t>(seed_.clique.size()),
               std::memory_order_relaxed);
  // Static selection against the seed; BranchComponent re-checks against
  // the live floor when a task runs, so components made irrelevant by a
  // sibling's find are skipped for free.
  const int64_t target = std::max<int64_t>(
      2 * options.params.k, static_cast<int64_t>(seed_.clique.size()) + 1);
  for (size_t i = 0; i < prepared.components.size(); ++i) {
    if (static_cast<int64_t>(prepared.components[i]->graph.num_vertices()) >=
        target) {
      components_.push_back(i);
    }
  }
  results_.resize(components_.size());
  done_ = std::vector<std::atomic<bool>>(components_.size());
  remaining_.store(components_.size(), std::memory_order_relaxed);
}

void BranchStage::AttachProgress(obs::QueryProgress* progress) {
  options_.progress = progress;
  const int64_t seed_size = static_cast<int64_t>(seed_.clique.size());
  progress->NoteIncumbent(seed_size);
  if (!components_.empty()) {
    progress->SetUpperBound(std::max(
        seed_size, static_cast<int64_t>(prepared_.components[components_[0]]
                                            ->graph.num_vertices())));
  }
}

bool BranchStage::RunTask(size_t task) {
  if (!stopped_.load(std::memory_order_relaxed)) {
    results_[task] = BranchComponent(prepared_, components_[task], options_,
                                     deadline_, &floor_);
    if (results_[task].aborted) {
      stopped_.store(true, std::memory_order_relaxed);
    }
  }
  if (options_.progress != nullptr) {
    done_[task].store(true, std::memory_order_relaxed);
    // The answer can't exceed the larger of the incumbent and the largest
    // component still searching: components_ ascends over largest-first
    // components, so the first undone task is that component.
    int64_t ub = floor_.load(std::memory_order_relaxed);
    for (size_t t = 0; t < components_.size(); ++t) {
      if (!done_[t].load(std::memory_order_relaxed)) {
        ub = std::max(ub, static_cast<int64_t>(
                              prepared_.components[components_[t]]
                                  ->graph.num_vertices()));
        break;
      }
    }
    options_.progress->SetUpperBound(ub);
    options_.progress->NoteComponentDone();
  }
  // acq_rel: the release side publishes this task's result slot, the
  // acquire side (the final decrement) observes every sibling's slot.
  return remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1;
}

SearchResult BranchStage::Aggregate() const {
  return AggregatePreparedSearch(prepared_, seed_, results_);
}

SearchResult SearchPreparedGraph(const AttributedGraph& g,
                                 const PreparedGraph& prepared,
                                 const SearchOptions& options) {
  WallTimer total_timer;
  BranchStage stage(g, prepared, options,
                    Deadline(options.time_limit_seconds));
  WallTimer search_timer;
  for (size_t t = 0; t < stage.num_tasks(); ++t) stage.RunTask(t);
  SearchResult result = stage.Aggregate();
  result.stats.search_micros = search_timer.ElapsedMicros();
  result.stats.total_micros = total_timer.ElapsedMicros();
  return result;
}

}  // namespace fairclique
