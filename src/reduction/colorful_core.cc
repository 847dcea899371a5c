#include "reduction/colorful_core.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel_for.h"

namespace fairclique {

namespace {

// Per-vertex multiset of neighbor (attribute, color) pairs, stored as a
// sorted flat array keyed by (color << 1) | attr with a count per key.
// Lookup is binary search; the whole structure is built once in O(sum deg).
struct ColorCountTable {
  std::vector<uint32_t> keys;    // concatenated per-vertex sorted key arrays
  std::vector<uint32_t> counts;  // parallel to keys
  std::vector<uint64_t> offsets; // size V+1

  // Vertices per ParallelFor chunk of Build.
  static constexpr size_t kGrain = 2048;

  static uint32_t MakeKey(ColorId color, Attribute attr) {
    return (static_cast<uint32_t>(color) << 1) | static_cast<uint32_t>(attr);
  }

  // Index of `key` within vertex v's slice; FC_CHECKs that it exists.
  size_t Find(VertexId v, uint32_t key) const {
    const uint32_t* begin = keys.data() + offsets[v];
    const uint32_t* end = keys.data() + offsets[v + 1];
    const uint32_t* it = std::lower_bound(begin, end, key);
    FC_CHECK(it != end && *it == key) << "color count key missing";
    return static_cast<size_t>(it - keys.data());
  }

  // Two passes over the vertices, each split into chunks that own their
  // vertices' slices: count the distinct keys of every row, then fill and
  // sort only those keys. stamp[key] == v marks a key already seen in v's
  // row, so neither pass clears anything between rows.
  void Build(const AttributedGraph& g, const Coloring& coloring,
             ParallelHelpers* helpers) {
    helpers = HelpersForWork(helpers, g.num_edges());
    const VertexId n = g.num_vertices();
    const size_t key_space = 2 * static_cast<size_t>(coloring.num_colors);
    auto key_of = [&](VertexId w) {
      return MakeKey(coloring.color[w], g.attribute(w));
    };
    // offsets[v + 1] first holds v's distinct-key count.
    offsets.assign(static_cast<size_t>(n) + 1, 0);
    ParallelFor(helpers, n, kGrain, [&](size_t begin, size_t end) {
      std::vector<VertexId> stamp(key_space, kInvalidVertex);
      for (VertexId v = begin; v < end; ++v) {
        uint64_t distinct = 0;
        for (VertexId w : g.neighbors(v)) {
          const uint32_t key = key_of(w);
          if (stamp[key] != v) {
            stamp[key] = v;
            ++distinct;
          }
        }
        offsets[v + 1] = distinct;
      }
    });
    for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
    keys.resize(offsets[n]);
    counts.resize(offsets[n]);
    ParallelFor(helpers, n, kGrain, [&](size_t begin, size_t end) {
      std::vector<VertexId> stamp(key_space, kInvalidVertex);
      std::vector<uint32_t> count(key_space);
      for (VertexId v = begin; v < end; ++v) {
        uint32_t* row = keys.data() + offsets[v];
        size_t distinct = 0;
        for (VertexId w : g.neighbors(v)) {
          const uint32_t key = key_of(w);
          if (stamp[key] != v) {
            stamp[key] = v;
            count[key] = 0;
            row[distinct++] = key;
          }
          ++count[key];
        }
        std::sort(row, row + distinct);
        for (size_t i = 0; i < distinct; ++i) {
          counts[offsets[v] + i] = count[row[i]];
        }
      }
    });
  }
};

}  // namespace

VertexReductionResult ColorfulCore(const AttributedGraph& g,
                                   const Coloring& coloring, int k) {
  const VertexId n = g.num_vertices();
  VertexReductionResult result;
  result.alive.assign(n, 1);
  if (k <= 0) {
    // Every vertex trivially qualifies.
    result.vertices_left = n;
    result.edges_left = g.num_edges();
    return result;
  }

  ColorCountTable table;
  table.Build(g, coloring, nullptr);
  // Distinct-color degree per attribute.
  std::vector<AttrCounts> d(n);
  for (VertexId v = 0; v < n; ++v) {
    for (uint64_t i = table.offsets[v]; i < table.offsets[v + 1]; ++i) {
      Attribute attr = static_cast<Attribute>(table.keys[i] & 1);
      d[v][attr]++;
    }
  }

  std::vector<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (d[v].Min() < k) {
      result.alive[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    VertexId v = queue.back();
    queue.pop_back();
    uint32_t key = ColorCountTable::MakeKey(coloring.color[v], g.attribute(v));
    for (VertexId u : g.neighbors(v)) {
      if (!result.alive[u]) continue;
      size_t idx = table.Find(u, key);
      if (--table.counts[idx] == 0) {
        Attribute attr = g.attribute(v);
        if (--d[u][attr] < k && d[u][attr] + 1 == k) {
          // Dropped below threshold just now.
          result.alive[u] = 0;
          queue.push_back(u);
        }
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (result.alive[v]) result.vertices_left++;
  }
  for (const Edge& e : g.edges()) {
    if (result.alive[e.u] && result.alive[e.v]) result.edges_left++;
  }
  return result;
}

VertexReductionResult EnColorfulCore(const AttributedGraph& g,
                                     const Coloring& coloring, int k,
                                     ParallelHelpers* helpers) {
  const VertexId n = g.num_vertices();
  VertexReductionResult result;
  result.alive.assign(n, 1);
  if (k <= 0) {
    result.vertices_left = n;
    result.edges_left = g.num_edges();
    return result;
  }

  ColorCountTable table;
  table.Build(g, coloring, helpers);
  // Per-vertex color-class sizes: ca (a-only colors), cb (b-only), cm (mixed).
  struct Classes {
    int64_t ca = 0, cb = 0, cm = 0;
    int64_t Ed() const { return BalancedAssignMin(ca, cb, cm); }
  };
  std::vector<Classes> cls(n);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t i = table.offsets[v];
    const uint64_t end = table.offsets[v + 1];
    while (i < end) {
      // Keys for the same color are adjacent: (c<<1|0) then (c<<1|1).
      if (i + 1 < end && (table.keys[i] >> 1) == (table.keys[i + 1] >> 1)) {
        cls[v].cm++;
        i += 2;
      } else if ((table.keys[i] & 1) == 0) {
        cls[v].ca++;
        i += 1;
      } else {
        cls[v].cb++;
        i += 1;
      }
    }
  }

  std::vector<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    if (cls[v].Ed() < k) {
      result.alive[v] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    VertexId v = queue.back();
    queue.pop_back();
    const ColorId color = coloring.color[v];
    const Attribute attr = g.attribute(v);
    const uint32_t key = ColorCountTable::MakeKey(color, attr);
    const uint32_t other_key = ColorCountTable::MakeKey(color, Other(attr));
    for (VertexId u : g.neighbors(v)) {
      if (!result.alive[u]) continue;
      size_t idx = table.Find(u, key);
      if (--table.counts[idx] != 0) continue;
      // Color `color` lost its `attr` side at u; reclassify.
      // Does u still see the other attribute with this color?
      const uint32_t* begin = table.keys.data() + table.offsets[u];
      const uint32_t* end = table.keys.data() + table.offsets[u + 1];
      const uint32_t* it = std::lower_bound(begin, end, other_key);
      bool other_alive = false;
      if (it != end && *it == other_key) {
        other_alive = table.counts[it - table.keys.data()] > 0;
      }
      if (other_alive) {
        // mixed -> other-only
        cls[u].cm--;
        if (attr == Attribute::kA) {
          cls[u].cb++;
        } else {
          cls[u].ca++;
        }
      } else {
        // attr-only -> gone
        if (attr == Attribute::kA) {
          cls[u].ca--;
        } else {
          cls[u].cb--;
        }
      }
      if (cls[u].Ed() < k) {
        result.alive[u] = 0;
        queue.push_back(u);
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (result.alive[v]) result.vertices_left++;
  }
  for (const Edge& e : g.edges()) {
    if (result.alive[e.u] && result.alive[e.v]) result.edges_left++;
  }
  return result;
}

ColorfulCoreDecomposition ComputeColorfulCores(const AttributedGraph& g,
                                               const Coloring& coloring) {
  const VertexId n = g.num_vertices();
  ColorfulCoreDecomposition result;
  result.ccore.assign(n, 0);
  result.position.assign(n, 0);
  result.peel_order.reserve(n);
  if (n == 0) return result;

  ColorCountTable table;
  table.Build(g, coloring, nullptr);
  std::vector<AttrCounts> d(n);
  for (VertexId v = 0; v < n; ++v) {
    for (uint64_t i = table.offsets[v]; i < table.offsets[v + 1]; ++i) {
      Attribute attr = static_cast<Attribute>(table.keys[i] & 1);
      d[v][attr]++;
    }
  }

  // Bucket peeling on Dmin with lazy entries: a vertex may sit in several
  // buckets; stale entries (bucket != current Dmin) are skipped.
  auto dmin = [&d](VertexId v) {
    return static_cast<uint32_t>(d[v].Min());
  };
  uint32_t max_val = 0;
  for (VertexId v = 0; v < n; ++v) max_val = std::max(max_val, dmin(v));
  std::vector<std::vector<VertexId>> buckets(max_val + 1);
  for (VertexId v = 0; v < n; ++v) buckets[dmin(v)].push_back(v);

  std::vector<uint8_t> removed(n, 0);
  uint32_t level = 0;
  uint32_t processed = 0;
  uint32_t cursor = 0;
  while (processed < n) {
    while (cursor < buckets.size() && buckets[cursor].empty()) ++cursor;
    FC_CHECK(cursor < buckets.size()) << "colorful core peel ran dry";
    VertexId v = buckets[cursor].back();
    buckets[cursor].pop_back();
    if (removed[v] || dmin(v) != cursor) continue;  // Stale entry.
    removed[v] = 1;
    level = std::max(level, cursor);
    result.ccore[v] = level;
    result.position[v] = processed;
    result.peel_order.push_back(v);
    ++processed;
    const uint32_t key =
        ColorCountTable::MakeKey(coloring.color[v], g.attribute(v));
    for (VertexId u : g.neighbors(v)) {
      if (removed[u]) continue;
      size_t idx = table.Find(u, key);
      if (--table.counts[idx] == 0) {
        d[u][g.attribute(v)]--;
        uint32_t nd = dmin(u);
        buckets[nd].push_back(u);
        // Dmin only drops during peeling; rewind the cursor when a vertex
        // falls below the current level so it is processed next.
        cursor = std::min(cursor, nd);
      }
    }
  }
  result.colorful_degeneracy = level;
  return result;
}

}  // namespace fairclique
