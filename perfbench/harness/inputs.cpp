#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common.h"
#include "datasets/datasets.h"

namespace perfbench {

using fairclique::AttributedGraph;
using fairclique::Rng;

namespace {

// The paper's best extra bound per dataset (Section VI: ubAD+ubcp for
// Themarker, Google and Pokec, ubAD+ubcd for the others).
fairclique::ExtraBound BestBound(const std::string& dataset) {
  if (dataset == "themarker-s" || dataset == "google-s" ||
      dataset == "pokec-s") {
    return fairclique::ExtraBound::kColorfulPath;
  }
  return fairclique::ExtraBound::kColorfulDegeneracy;
}

// Stream constants for SubSeed, one per independent random stream (2 is the
// closed loops' round order, in cold.cpp).
constexpr uint64_t kDeltaStream = 1;
constexpr uint64_t kServeStream = 3;
// Fixed, not seed-derived: which serve keys are popular. Changing the hot
// set per seed would change the miss cost per seed.
constexpr uint64_t kPopularitySeed = 0x5E57E;
// At exponent 1.4 about three queries in four hit the result cache, so the
// median query is a hit rather than the edge between hits and misses.
constexpr double kZipfExponent = 1.4;
constexpr size_t kUpdateEvery = 20;  // 5% of the operations

}  // namespace

AttributedGraph Generate(const GraphSpec& spec) {
  return fairclique::LoadDataset(spec.dataset, spec.scale);
}

fairclique::SearchOptions OptionsFor(const Key& key,
                                     const std::string& dataset) {
  switch (key.preset) {
    case Preset::kBaseline:
      return fairclique::BaselineOptions(key.k, key.delta);
    case Preset::kBounded:
      return fairclique::BoundedOptions(key.k, key.delta, BestBound(dataset));
    case Preset::kFull:
      break;
  }
  return fairclique::FullOptions(key.k, key.delta, BestBound(dataset));
}

ColdPlan ColdReducePlan(uint64_t seed) {
  ColdPlan plan;
  plan.graphs = {{"pokec-s@16", "pokec-s", 16.0}, {"dblp-s@8", "dblp-s", 8.0}};
  // The reduction does not depend on delta, so seed-drawn deltas vary the
  // answers without changing the work. pokec-s k=4 is asked at two deltas:
  // with an odd number of keys per round the median falls inside one key's
  // latencies instead of on the edge between two keys of different cost.
  Rng rng(SubSeed(seed, kDeltaStream));
  for (auto [graph, k] :
       {std::pair<size_t, int>{0, 3}, {0, 4}, {1, 5}, {1, 6}}) {
    int delta = static_cast<int>(rng.NextInRange(1, 3));
    plan.keys.push_back({graph, k, delta, Preset::kFull});
  }
  plan.keys.push_back({0, 4, plan.keys[1].delta % 3 + 1, Preset::kFull});
  plan.warmup = {1, 6, 1, Preset::kFull};
  return plan;
}

ColdPlan ColdBranchPlan() {
  ColdPlan plan;
  plan.graphs = {{"themarker-s@16", "themarker-s", 16.0}};
  // delta = 0 is avoided: it runs for tens of seconds on this graph.
  plan.keys = {{0, 2, 1, Preset::kFull}, {0, 2, 2, Preset::kFull}};
  plan.warmup = {0, 3, 2, Preset::kFull};  // same graph, a light branch
  return plan;
}

std::vector<GraphSpec> ServeGraphs() {
  std::vector<GraphSpec> graphs;
  for (const fairclique::DatasetSpec& spec : fairclique::StandardDatasets()) {
    graphs.push_back({spec.name, spec.name, 1.0});
  }
  return graphs;
}

std::vector<Key> ServeKeys() {
  std::vector<Key> keys;
  std::vector<fairclique::DatasetSpec> specs = fairclique::StandardDatasets();
  for (size_t g = 0; g < specs.size(); ++g) {
    for (int k : specs[g].k_range) {
      for (int delta = 1; delta <= 4; ++delta) {
        for (Preset preset :
             {Preset::kBaseline, Preset::kBounded, Preset::kFull}) {
          keys.push_back({g, k, delta, preset});
        }
      }
    }
  }
  return keys;
}

std::vector<ServeOp> ServeStream(uint64_t seed, double seconds,
                                 bool with_updates) {
  std::vector<Key> keys = ServeKeys();
  Rng popularity(kPopularitySeed);
  popularity.Shuffle(keys);  // keys[r] is the r-th most popular key

  std::vector<double> cdf(keys.size());
  double total = 0.0;
  for (size_t r = 0; r < keys.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    cdf[r] = total;
  }
  const size_t num_graphs = ServeGraphs().size();

  Rng rng(SubSeed(seed, kServeStream));
  std::vector<ServeOp> ops;
  size_t updates = 0;
  double at = 0.0;
  while (true) {
    // Exponential inter-arrival gaps make the arrivals a Poisson process.
    at += -std::log(1.0 - rng.NextDouble()) / kServeRate;
    if (at >= seconds) break;
    ServeOp op;
    op.at = at;
    // Updates take a fixed share of the positions and visit the graphs in
    // turn, so every run sees the same write pressure on every graph.
    op.update = with_updates && ops.size() % kUpdateEvery == kUpdateEvery - 1;
    if (op.update) {
      op.graph = updates++ % num_graphs;
      op.batch_seed = rng.NextU64();
    } else {
      double u = rng.NextDouble() * total;
      size_t r = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      op.key = keys[std::min(r, keys.size() - 1)];
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<fairclique::UpdateOp> MakeBatch(const AttributedGraph& g,
                                            uint64_t batch_seed) {
  using fairclique::Edge;
  using fairclique::VertexId;
  Rng rng(batch_seed);
  std::vector<fairclique::UpdateOp> batch;
  std::set<std::pair<VertexId, VertexId>> used;
  const VertexId n = g.num_vertices();
  const int inserts = static_cast<int>(rng.NextInRange(1, 3));
  for (int i = 0, tries = 0; i < inserts && tries < 1000; ++tries) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (g.HasEdge(u, v) || !used.insert({u, v}).second) continue;
    batch.push_back(fairclique::AddEdgeOp(u, v));
    ++i;
  }
  const int removals = static_cast<int>(rng.NextInRange(1, 2));
  for (int i = 0, tries = 0; i < removals && tries < 1000; ++tries) {
    const Edge& e = g.edges()[rng.NextBounded(g.num_edges())];
    if (!used.insert({e.u, e.v}).second) continue;
    batch.push_back(fairclique::RemoveEdgeOp(e.u, e.v));
    ++i;
  }
  if (rng.NextBool(0.2)) {
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    fairclique::Attribute flipped = g.attribute(v) == fairclique::Attribute::kA
                                        ? fairclique::Attribute::kB
                                        : fairclique::Attribute::kA;
    batch.push_back(fairclique::SetAttributeOp(v, flipped));
  }
  return batch;
}

}  // namespace perfbench
