#include "oracle.h"

#include <algorithm>

namespace perfbench {

namespace fc = fairclique;

class CliqueSearch {
 public:
  CliqueSearch(const fc::AttributedGraph& g, CliqueProfile* out)
      : out_(out), adj_(g.num_vertices()), is_a_(g.num_vertices()) {
    for (fc::VertexId v = 0; v < g.num_vertices(); ++v) {
      std::span<const fc::VertexId> nb = g.neighbors(v);
      adj_[v].assign(nb.begin(), nb.end());
      std::sort(adj_[v].begin(), adj_[v].end());
      adj_[v].erase(std::unique(adj_[v].begin(), adj_[v].end()),
                    adj_[v].end());
      adj_[v].erase(std::remove(adj_[v].begin(), adj_[v].end(), v),
                    adj_[v].end());
      is_a_[v] = g.attribute(v) == fc::Attribute::kA;
    }
  }

  // Each clique is enumerated from its earliest vertex in a degeneracy
  // order, so a candidate set never exceeds the degeneracy. The latest
  // vertices go first: they sit in the densest cores and fill the frontier
  // early, which prunes the rest.
  void Run() {
    const std::vector<uint32_t> order = DegeneracyOrder();
    std::vector<uint32_t> pos(order.size());
    for (uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
    for (size_t i = order.size(); i-- > 0;) {
      const uint32_t v = order[i];
      std::vector<uint32_t> candidates;
      for (uint32_t u : adj_[v]) {
        if (pos[u] > i) candidates.push_back(u);
      }
      Expand(is_a_[v], !is_a_[v], candidates);
    }
  }

 private:
  std::vector<uint32_t> DegeneracyOrder() const {
    const size_t n = adj_.size();
    std::vector<uint32_t> degree(n);
    uint32_t max_degree = 0;
    for (size_t v = 0; v < n; ++v) {
      degree[v] = static_cast<uint32_t>(adj_[v].size());
      max_degree = std::max(max_degree, degree[v]);
    }
    // Bucket queue by current degree (Matula and Beck).
    std::vector<std::vector<uint32_t>> buckets(max_degree + 1);
    for (size_t v = 0; v < n; ++v) {
      buckets[degree[v]].push_back(static_cast<uint32_t>(v));
    }
    std::vector<uint8_t> removed(n, 0);
    std::vector<uint32_t> order;
    order.reserve(n);
    uint32_t d = 0;
    while (order.size() < n) {
      d = d > 0 ? d - 1 : 0;  // a removal lowers degrees by at most one
      while (buckets[d].empty()) ++d;
      const uint32_t v = buckets[d].back();
      buckets[d].pop_back();
      if (removed[v] || degree[v] != d) continue;  // stale entry
      removed[v] = 1;
      order.push_back(v);
      for (uint32_t u : adj_[v]) {
        if (!removed[u]) buckets[--degree[u]].push_back(u);
      }
    }
    return order;
  }

  bool Adjacent(uint32_t u, uint32_t v) const {
    const std::vector<uint32_t>& list =
        adj_[u].size() <= adj_[v].size() ? adj_[u] : adj_[v];
    return std::binary_search(list.begin(), list.end(),
                              adj_[u].size() <= adj_[v].size() ? v : u);
  }

  bool Dominated(int64_t a, int64_t b) const {
    return a < static_cast<int64_t>(out_->best_b_.size()) &&
           out_->best_b_[a] >= b;
  }

  void Record(int64_t a, int64_t b) {
    if (Dominated(a, b)) return;
    if (static_cast<int64_t>(out_->best_b_.size()) <= a) {
      out_->best_b_.resize(a + 1, -1);
      out_->max_b_.resize(a + 1, -1);
    }
    out_->max_b_[a] = std::max(out_->max_b_[a], b);
    for (int64_t i = 0; i <= a; ++i) {
      out_->best_b_[i] = std::max(out_->best_b_[i], b);
    }
  }

  // Grows the clique with counts (a, b) by the vertices of `candidates`,
  // which are adjacent to every clique vertex.
  void Expand(int64_t a, int64_t b, const std::vector<uint32_t>& candidates) {
    if (candidates.empty()) {
      Record(a, b);
      return;
    }
    int64_t left_a = 0;
    for (uint32_t u : candidates) left_a += is_a_[u];
    int64_t left_b = static_cast<int64_t>(candidates.size()) - left_a;
    if (Dominated(a + left_a, b + left_b)) return;

    // Tomita pivot: the candidate adjacent to the most others. Every clique
    // that cannot be grown within the candidates holds the pivot or one of
    // its non-neighbours, so only those start a branch.
    uint32_t pivot = candidates[0];
    size_t pivot_links = 0;
    for (uint32_t u : candidates) {
      size_t links = 0;
      for (uint32_t w : candidates) links += w != u && Adjacent(u, w);
      if (links > pivot_links) {
        pivot = u;
        pivot_links = links;
      }
    }
    std::vector<uint8_t> done(candidates.size(), 0);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const uint32_t v = candidates[i];
      if (v != pivot && Adjacent(pivot, v)) continue;
      std::vector<uint32_t> next;
      for (size_t j = 0; j < candidates.size(); ++j) {
        if (j != i && !done[j] && Adjacent(v, candidates[j])) {
          next.push_back(candidates[j]);
        }
      }
      Expand(a + is_a_[v], b + !is_a_[v], next);
      done[i] = 1;
      (is_a_[v] ? left_a : left_b) -= 1;
      if (Dominated(a + left_a, b + left_b)) return;
    }
  }

  CliqueProfile* out_;
  std::vector<std::vector<uint32_t>> adj_;
  std::vector<uint8_t> is_a_;
};

CliqueProfile::CliqueProfile(const fc::AttributedGraph& g) {
  CliqueSearch(g, this).Run();
}

size_t CliqueProfile::MaxFairSize(int k, int delta) const {
  int64_t best = 0;
  for (int64_t a = 0; a < static_cast<int64_t>(max_b_.size()); ++a) {
    const int64_t b = max_b_[a];
    const int64_t m = std::min(a, b);
    if (b < 0 || m < k) continue;
    best = std::max(best, m + std::min(std::max(a, b), m + delta));
  }
  return static_cast<size_t>(best);
}

}  // namespace perfbench
