// Seeded inputs of the three workloads.
//
// Graphs are the repository's stand-in recipes (datasets/datasets.h) at a
// fixed scale each. The recipes carry their own fixed generator seeds: with
// per-seed graphs the cold-branch cost swings from 0.02 s to over 20 s
// between seeds at x16, which no bound could absorb. The workload seed
// therefore drives everything the program is asked: request order, delta
// choices, Zipf draws, arrival times and update batches.
#ifndef FAIRCLIQUE_PERFBENCH_INPUTS_H_
#define FAIRCLIQUE_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/max_fair_clique.h"
#include "dynamic/dynamic_graph.h"
#include "graph/graph.h"

namespace perfbench {

/// One graph a workload registers: a stand-in recipe at a scale.
struct GraphSpec {
  std::string name;     // registry name, e.g. "pokec-s@16"
  std::string dataset;  // stand-in recipe, e.g. "pokec-s"
  double scale = 1.0;
};

fairclique::AttributedGraph Generate(const GraphSpec& spec);

enum class Preset { kBaseline, kBounded, kFull };

/// One query: graph, fairness parameters and algorithm preset.
struct Key {
  size_t graph = 0;  // index into the workload's GraphSpec list
  int k = 1;
  int delta = 0;
  Preset preset = Preset::kFull;
};

/// Search options of `key` on `dataset`, with the paper's per-dataset best
/// extra bound for the bounded and full presets.
fairclique::SearchOptions OptionsFor(const Key& key,
                                     const std::string& dataset);

/// The closed-loop workloads: graphs plus the keys one round issues. Every
/// round issues each key once, in a seed-shuffled order, so every run has
/// the same mix however many rounds fit.
struct ColdPlan {
  std::vector<GraphSpec> graphs;
  std::vector<Key> keys;
  /// The key the warm-up query uses (fixed, so set-up time does not depend
  /// on the seed).
  Key warmup;
};
ColdPlan ColdReducePlan(uint64_t seed);
ColdPlan ColdBranchPlan();

/// serve-mixed: the six stand-ins at x1, and an open-loop operation stream.
std::vector<GraphSpec> ServeGraphs();

struct ServeOp {
  double at = 0.0;      // scheduled send time, seconds from the loop start
  bool update = false;
  Key key;              // queries
  size_t graph = 0;     // updates
  uint64_t batch_seed = 0;
};

/// Poisson arrival rate of the serve-mixed stream, operations per second.
inline constexpr double kServeRate = 300.0;

/// The 360-key universe: graph x k_range x delta 1..4 x preset.
std::vector<Key> ServeKeys();

/// Operations scheduled in [0, seconds) at kServeRate; queries draw
/// Zipf-skewed (exponent 1.4) over ServeKeys() in a fixed popularity order.
/// With `with_updates`, every 20th operation is an update batch instead.
std::vector<ServeOp> ServeStream(uint64_t seed, double seconds,
                                 bool with_updates);

/// A small update batch valid against `g`: 1-3 edge inserts, 1-2 removals,
/// and an attribute flip one time in five.
std::vector<fairclique::UpdateOp> MakeBatch(const fairclique::AttributedGraph& g,
                                            uint64_t batch_seed);

}  // namespace perfbench

#endif  // FAIRCLIQUE_PERFBENCH_INPUTS_H_
