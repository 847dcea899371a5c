#include "datasets/datasets.h"

#include <cmath>

#include "common/logging.h"
#include "common/random.h"
#include "graph/generators.h"

namespace fairclique {

namespace {

// Plants a handful of balanced cliques (sizes 12..22) so that fair cliques
// exist across the k ranges swept by the experiments — the stand-in
// counterpart of the large natural cliques in the paper's real datasets
// (collaboration networks have author cliques per paper; socials have dense
// friend groups) — plus a few dozen medium unbalanced cliques that thicken
// the clique-rich residue the reductions cannot remove, so the
// branch-and-bound phase has realistic work at small k.
AttributedGraph PlantStandardCliques(AttributedGraph g, Rng& rng) {
  for (uint32_t size : {12u, 14u, 16u, 18u, 20u, 22u}) {
    if (size <= g.num_vertices()) {
      g = PlantClique(g, size, /*balanced=*/true, rng, nullptr);
    }
  }
  GraphBuilder builder(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    builder.SetAttribute(v, g.attribute(v));
  }
  for (const Edge& e : g.edges()) builder.AddEdge(e.u, e.v);
  for (int c = 0; c < 80; ++c) {
    uint32_t size = static_cast<uint32_t>(rng.NextInRange(6, 12));
    if (size > g.num_vertices()) continue;
    std::vector<uint64_t> members = rng.SampleDistinct(g.num_vertices(), size);
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        builder.AddEdge(static_cast<VertexId>(members[i]),
                        static_cast<VertexId>(members[j]));
      }
    }
  }
  return builder.Build();
}

}  // namespace

std::vector<DatasetSpec> StandardDatasets() {
  return {
      {"themarker-s", {2, 3, 4, 5, 6}, 6, 3},
      {"google-s", {5, 6, 7, 8, 9}, 7, 4},
      {"dblp-s", {5, 6, 7, 8, 9}, 7, 4},
      {"flixster-s", {2, 3, 4, 5, 6}, 3, 3},
      {"pokec-s", {3, 4, 5, 6, 7}, 4, 4},
      {"aminer-s", {4, 5, 6, 7, 8}, 6, 4},
  };
}

DatasetSpec DatasetByName(const std::string& name) {
  for (const DatasetSpec& spec : StandardDatasets()) {
    if (spec.name == name) return spec;
  }
  FC_CHECK(false) << "unknown dataset: " << name;
  return {};
}

AttributedGraph LoadDataset(const std::string& name, double scale) {
  FC_CHECK(std::isfinite(scale) && scale > 0)
      << "scale must be positive and finite";
  auto scaled = [scale](VertexId n) {
    const double count = std::round(n * scale);
    FC_CHECK(count <= static_cast<double>(kInvalidVertex - 1))
        << "scale " << scale << " makes " << count
        << " vertices, more than a VertexId can number";
    return static_cast<VertexId>(count);
  };
  // One fixed seed per dataset: stand-ins are deterministic artifacts, not
  // random draws.
  if (name == "themarker-s") {
    Rng rng(0x7E3A);
    AttributedGraph g = ChungLuPowerLaw(scaled(1500), 24.0, 2.3, rng);
    g = AssignAttributesBernoulli(g, 0.5, rng);
    return PlantStandardCliques(std::move(g), rng);
  }
  if (name == "google-s") {
    Rng rng(0x600613);
    AttributedGraph g = BarabasiAlbert(scaled(6000), 4, rng);
    g = AssignAttributesBernoulli(g, 0.5, rng);
    return PlantStandardCliques(std::move(g), rng);
  }
  if (name == "dblp-s") {
    Rng rng(0xDB19);
    PlantedCliqueOptions opts;
    opts.num_vertices = scaled(5000);
    opts.background_edge_prob = 0.0008;
    opts.num_cliques = 400;
    opts.min_clique_size = 4;
    opts.max_clique_size = 14;
    AttributedGraph g = PlantedCliqueGraph(opts, rng);
    g = AssignAttributesBernoulli(g, 0.5, rng);
    return PlantStandardCliques(std::move(g), rng);
  }
  if (name == "flixster-s") {
    Rng rng(0xF11C);
    AttributedGraph g = ChungLuPowerLaw(scaled(6000), 6.0, 2.6, rng);
    g = AssignAttributesBernoulli(g, 0.5, rng);
    return PlantStandardCliques(std::move(g), rng);
  }
  if (name == "pokec-s") {
    Rng rng(0x90CEC);
    AttributedGraph g = ChungLuPowerLaw(scaled(4000), 22.0, 2.4, rng);
    g = AssignAttributesBernoulli(g, 0.5, rng);
    return PlantStandardCliques(std::move(g), rng);
  }
  if (name == "aminer-s") {
    Rng rng(0xA01);
    PlantedCliqueOptions opts;
    opts.num_vertices = scaled(3000);
    opts.background_edge_prob = 0.001;
    opts.num_cliques = 250;
    opts.min_clique_size = 4;
    opts.max_clique_size = 12;
    AttributedGraph g = PlantedCliqueGraph(opts, rng);
    // Correlated attributes simulate the real gender attribute (68/32 mix
    // with strong homophily, as observed in scholarly collaboration data).
    g = AssignAttributesHomophily(g, 0.68, 0.8, rng);
    return PlantStandardCliques(std::move(g), rng);
  }
  FC_CHECK(false) << "unknown dataset: " << name;
  return {};
}

}  // namespace fairclique
