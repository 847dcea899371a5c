// fairclique_cli: a command-line front end to the library, for downstream
// users who want the algorithms without writing C++.
//
// Subcommands:
//   stats    <graph> [attrs]                       graph summary
//   reduce   <graph> [attrs] --k K                 reduction funnel
//   search   <graph> [attrs] --k K --delta D       maximum relative fair clique
//   weak     <graph> [attrs] --k K                 maximum weak fair clique
//   strong   <graph> [attrs] --k K                 maximum strong fair clique
//   enum     <graph> [attrs] --k K --delta D [--limit N]
//                                                  maximal relative fair cliques
//   generate <dataset> <edge_out> <attr_out>       write a stand-in dataset
//
// <graph> is either a built-in stand-in name (see `generate` list) or an
// edge-list file; attributes default to Bernoulli(1/2) when no file given.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/fair_variants.h"
#include "core/fairclique.h"
#include "datasets/datasets.h"

namespace {

using namespace fairclique;

struct Args {
  std::string command;
  std::string graph;
  std::string attrs;
  int k = 2;
  int delta = 2;
  uint64_t limit = 20;
};

int Usage() {
  std::fprintf(stderr,
               "usage: fairclique_cli <stats|reduce|search|weak|strong|enum> "
               "<graph> [attrs] [--k K] [--delta D] [--limit N]\n"
               "       fairclique_cli generate <dataset> <edge_out> "
               "<attr_out>\n"
               "built-in datasets:");
  for (const DatasetSpec& spec : StandardDatasets()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* out) {
  if (argc < 3) return false;
  out->command = argv[1];
  out->graph = argv[2];
  int i = 3;
  if (i < argc && argv[i][0] != '-') out->attrs = argv[i++];
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--k") == 0 && i + 1 < argc) {
      out->k = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--delta") == 0 && i + 1 < argc) {
      out->delta = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--limit") == 0 && i + 1 < argc) {
      out->limit = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return false;
    }
  }
  return out->k >= 1 && out->delta >= 0;
}

bool IsBuiltin(const std::string& name) {
  for (const DatasetSpec& spec : StandardDatasets()) {
    if (spec.name == name) return true;
  }
  return false;
}

bool LoadGraph(const Args& args, AttributedGraph* g) {
  if (IsBuiltin(args.graph)) {
    *g = LoadDataset(args.graph);
    return true;
  }
  Status st = LoadAttributedGraph(args.graph, args.attrs, {}, g);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return false;
  }
  if (args.attrs.empty()) {
    Rng rng(7);
    *g = AssignAttributesBernoulli(*g, 0.5, rng);
  }
  return true;
}

void PrintClique(const AttributedGraph& g, const CliqueResult& c) {
  if (c.empty()) {
    std::printf("no fair clique exists for these parameters\n");
    return;
  }
  std::printf("size %zu (%lld a / %lld b):", c.size(),
              static_cast<long long>(c.attr_counts.a()),
              static_cast<long long>(c.attr_counts.b()));
  for (VertexId v : c.vertices) {
    std::printf(" %u%c", v, g.attribute(v) == Attribute::kA ? 'a' : 'b');
  }
  std::printf("\n");
}

int RunStats(const Args& args) {
  AttributedGraph g;
  if (!LoadGraph(args, &g)) return 1;
  std::printf("%s", FormatGraphStats(ComputeGraphStats(g)).c_str());
  Coloring coloring = GreedyColoring(g);
  std::printf("greedy colors:       %d\n", coloring.num_colors);
  return 0;
}

int RunReduce(const Args& args) {
  AttributedGraph g;
  if (!LoadGraph(args, &g)) return 1;
  ReductionPipelineResult r =
      ReduceForFairClique(g, args.k, ReductionOptions{});
  std::printf("%-16s %12s %12s %10s\n", "stage", "|V|", "|E|", "micros");
  std::printf("%-16s %12u %12u %10s\n", "(input)", g.num_vertices(),
              g.num_edges(), "-");
  for (const ReductionStageStats& s : r.stages) {
    std::printf("%-16s %12u %12u %10lld\n", s.name.c_str(), s.vertices_left,
                s.edges_left, static_cast<long long>(s.micros));
  }
  return 0;
}

int RunSearch(const Args& args, const char* mode) {
  AttributedGraph g;
  if (!LoadGraph(args, &g)) return 1;
  SearchResult r;
  FairnessParams check{args.k, args.delta};
  if (std::strcmp(mode, "weak") == 0) {
    r = FindMaximumWeakFairClique(g, args.k, ExtraBound::kColorfulDegeneracy);
    check.delta = static_cast<int>(g.num_vertices()) + 1;
  } else if (std::strcmp(mode, "strong") == 0) {
    r = FindMaximumStrongFairClique(g, args.k,
                                    ExtraBound::kColorfulDegeneracy);
    check.delta = 0;
  } else {
    r = FindMaximumFairClique(
        g, FullOptions(args.k, args.delta, ExtraBound::kColorfulDegeneracy));
  }
  PrintClique(g, r.clique);
  if (!r.clique.empty()) {
    Status st = VerifyFairClique(g, r.clique.vertices, check);
    std::printf("verified: %s\n", st.ToString().c_str());
  }
  std::printf("nodes: %llu  time: %lld us%s\n",
              static_cast<unsigned long long>(r.stats.nodes),
              static_cast<long long>(r.stats.total_micros),
              r.stats.completed ? "" : "  (INCOMPLETE: limit hit)");
  return 0;
}

int RunEnum(const Args& args) {
  AttributedGraph g;
  if (!LoadGraph(args, &g)) return 1;
  if (g.num_vertices() > 2000) {
    std::fprintf(stderr,
                 "enum is exhaustive and intended for graphs up to ~2000 "
                 "vertices (got %u)\n",
                 g.num_vertices());
    return 1;
  }
  uint64_t count = EnumerateRelativeFairCliques(
      g, {args.k, args.delta},
      [&](const std::vector<VertexId>& c) {
        CliqueResult res;
        res.vertices = c;
        res.attr_counts = CountAttributes(g, c);
        PrintClique(g, res);
      },
      args.limit);
  std::printf("%llu maximal relative fair clique(s)%s\n",
              static_cast<unsigned long long>(count),
              count >= args.limit && args.limit != 0 ? " (limit reached)" : "");
  return 0;
}

int RunGenerate(int argc, char** argv) {
  if (argc != 5) return Usage();
  std::string name = argv[2];
  if (!IsBuiltin(name)) {
    std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
    return 2;
  }
  AttributedGraph g = LoadDataset(name);
  Status st = SaveEdgeList(g, argv[3]);
  if (st.ok()) st = SaveAttributes(g, argv[4]);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%u vertices, %u edges) to %s / %s\n", name.c_str(),
              g.num_vertices(), g.num_edges(), argv[3], argv[4]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "generate") == 0) return RunGenerate(argc, argv);
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.command == "stats") return RunStats(args);
  if (args.command == "reduce") return RunReduce(args);
  if (args.command == "search") return RunSearch(args, "relative");
  if (args.command == "weak") return RunSearch(args, "weak");
  if (args.command == "strong") return RunSearch(args, "strong");
  if (args.command == "enum") return RunEnum(args);
  return Usage();
}
